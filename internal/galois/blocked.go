package galois

// Deterministic blocked loops.
//
// ForRange hands the *scheduling* of a loop to the executor: which worker
// runs which chunk, and in what order, is a property of the schedule. That
// is fine for side-effect-free iterations, but any reduction that folds
// per-worker state afterwards inherits the schedule — float64 sums change
// bits from run to run under work stealing, and sparse outputs concatenated
// per worker change order. The helpers here fix both by construction:
//
//   - the range is cut into blocks whose boundaries depend only on the
//     range length (DetBlock), never on the worker count or the schedule;
//   - each block produces an independent partial result, indexed by block
//     number rather than worker id;
//   - partials are folded in ascending block order.
//
// Any executor — serial, static, or work-stealing at any thread count —
// therefore produces bit-identical results for the same input. This is the
// ordered reduction the GraphBLAS kernels of internal/grb run on.

// DetBlock returns the block size deterministic blocked loops use for a
// range of n iterations. It is a function of n alone — never of Threads()
// or the executor — so the block boundaries, and any ordered reduction
// folded over them, are identical for every worker count.
//
// The shape balances two costs: enough blocks that a work-stealing executor
// can balance skewed iteration costs (up to maxDetBlocks), but blocks big
// enough that per-block bookkeeping (partial-result extraction, a steal per
// block) stays amortized.
func DetBlock(n int) int {
	const (
		minDetBlock  = 16
		maxDetBlocks = 64
	)
	if n <= 0 {
		return minDetBlock
	}
	b := (n + maxDetBlocks - 1) / maxDetBlocks
	if b < minDetBlock {
		b = minDetBlock
	}
	return b
}

// NumBlocks returns how many blocks the deterministic blocking cuts [0, n)
// into. block <= 0 selects DetBlock(n).
func NumBlocks(n, block int) int {
	if n <= 0 {
		return 0
	}
	if block <= 0 {
		block = DetBlock(n)
	}
	return (n + block - 1) / block
}

// BlockBounds returns the [lo, hi) iteration range of block b under the
// deterministic blocking of [0, n).
func BlockBounds(b, n, block int) (lo, hi int) {
	if block <= 0 {
		block = DetBlock(n)
	}
	lo = b * block
	hi = lo + block
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForBlocks runs body once per block of the deterministic blocking of
// [0, n), scheduling whole blocks on ex. body receives the block index b and
// the iteration range [lo, hi); distinct blocks may run concurrently, so
// bodies must only share read-only state (a per-block result slot, indexed
// by b, is the intended output channel). block <= 0 selects DetBlock(n).
func ForBlocks(ex Executor, n, block int, body func(b, lo, hi int, ctx *Ctx)) {
	if n <= 0 {
		return
	}
	if block <= 0 {
		block = DetBlock(n)
	}
	nb := (n + block - 1) / block
	// A static call keeps an inline loop's closure off the heap.
	if s, ok := ex.(*Serial); ok {
		s.ForRange(nb, 1, func(blo, bhi int, ctx *Ctx) { runBlocks(blo, bhi, n, block, body, ctx) })
		return
	}
	ex.ForRange(nb, 1, func(blo, bhi int, ctx *Ctx) { runBlocks(blo, bhi, n, block, body, ctx) })
}

// runBlocks runs body over blocks [blo, bhi) of the blocking of [0, n).
func runBlocks(blo, bhi, n, block int, body func(b, lo, hi int, ctx *Ctx), ctx *Ctx) {
	for b := blo; b < bhi; b++ {
		lo, hi := BlockBounds(b, n, block)
		body(b, lo, hi, ctx)
	}
}

// OrderedReduce computes one partial result per block of [0, n) in parallel
// and folds the partials in ascending block order. Because the blocking is
// fixed by (n, block) and the fold order is fixed by the block numbering,
// the result is bit-identical on every executor, worker count, and schedule
// — even for non-associative folds like float64 addition, whose result
// depends on grouping. (A naive reduction that folds partials as workers
// finish, or atomically adds into a shared cell, has no such guarantee; see
// TestOrderedReduceFixedMergeOrder for the bit-level demonstration.)
//
// The fold starts from the block-0 partial, so identity handling is the
// compute callback's concern alone. ok is false when the range is empty.
// block <= 0 selects DetBlock(n).
func OrderedReduce[R any](ex Executor, n, block int, compute func(b, lo, hi int, ctx *Ctx) R, fold func(acc, next R) R) (result R, ok bool) {
	if n <= 0 {
		return result, false
	}
	if block <= 0 {
		block = DetBlock(n)
	}
	parts := make([]R, NumBlocks(n, block))
	ForBlocks(ex, n, block, func(b, lo, hi int, ctx *Ctx) {
		parts[b] = compute(b, lo, hi, ctx)
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = fold(acc, p)
	}
	return acc, true
}
