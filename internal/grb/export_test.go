package grb

// TypedLoopCalls reports how many kernel calls have run the typed loop of
// the named semiring ("plus_times" or "plus_pair").
func TypedLoopCalls(semiring string) int64 {
	kind := map[string]semiringKind{"plus_times": kindPlusTimes, "plus_pair": kindPlusPair}[semiring]
	return typedCalls[kind].Load()
}

// split drops ctx's inline twin: every kernel call then starts ctx's
// workers, whatever its work, so that the small inputs of the equivalence,
// block-sweep and fuzz suites still take the parallel path.
func split(ctx *Context) *Context {
	ctx.inline = nil
	return ctx
}
