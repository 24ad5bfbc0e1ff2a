package grb

// TypedLoopCalls reports how many kernel calls have run the typed loop of
// the named semiring ("plus_times" or "plus_pair").
func TypedLoopCalls(semiring string) int64 {
	kind := map[string]semiringKind{"plus_times": kindPlusTimes, "plus_pair": kindPlusPair}[semiring]
	return typedCalls[kind].Load()
}
