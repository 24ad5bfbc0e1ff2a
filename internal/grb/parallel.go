package grb

import (
	"math/bits"
	"slices"

	"graphstudy/internal/galois"
)

// This file is the deterministic parallel execution layer of the kernels:
// shared machinery for running them on the Galois executors while keeping
// results bit-identical across scheduling policies and worker counts.
//
// The rule every kernel follows: cut the iteration range into blocks whose
// boundaries depend only on the range length (galois.DetBlock), produce one
// partial result per *block* (never per worker), and combine partials in
// ascending block order. Which worker computes a block then cannot influence
// the result — only wall-clock time. The equivalence tests in equiv_test.go
// and the metamorphic tests in metamorphic_test.go hold every kernel to this.

// blockFor returns the block size deterministic blocked kernels use for a
// range of n iterations: the Context override when set (the metamorphic
// tests sweep it to prove blocking invariance), otherwise galois.DetBlock(n).
func (c *Context) blockFor(n int) int {
	if c.Block > 0 {
		return c.Block
	}
	return galois.DetBlock(n)
}

// stitch concatenates per-block entry lists in ascending block order into one
// list. Entry order in the output is therefore fixed by the blocking, not by
// the schedule that produced the parts.
func stitch[T any](parts []entryList[T]) entryList[T] {
	total := 0
	for i := range parts {
		total += len(parts[i].idx)
	}
	var out entryList[T]
	if total == 0 {
		return out
	}
	out.idx = make([]int32, 0, total)
	out.vals = make([]T, 0, total)
	for i := range parts {
		out.idx = append(out.idx, parts[i].idx...)
		out.vals = append(out.vals, parts[i].vals...)
	}
	return out
}

// blockedEntries runs produce over the deterministic blocking of [0, n),
// each block appending its output entries to a private list, and stitches
// the lists in block order. Provided each block's output depends only on its
// iteration range, the result is identical on every executor, worker count,
// and schedule. work is the call's work for exFor.
func blockedEntries[T any](ctx *Context, n, work int, produce func(lo, hi int, gctx *galois.Ctx, out *entryList[T])) entryList[T] {
	block := ctx.blockFor(n)
	parts := make([]entryList[T], galois.NumBlocks(n, block))
	galois.ForBlocks(ctx.exFor(work), n, block, func(b, lo, hi int, gctx *galois.Ctx) {
		produce(lo, hi, gctx, &parts[b])
	})
	return stitch(parts)
}

// blockedWords is blockedEntries over the 64-position words of an
// n-position index space, cut into blocks of words the way writeDense cuts
// them: produce appends the entries of words [wlo, whi) in ascending order.
func blockedWords[T any](ctx *Context, n int, produce func(wlo, whi int, out *entryList[T])) entryList[T] {
	nw := (n + 63) >> 6
	block := (ctx.blockFor(n) + 63) >> 6
	parts := make([]entryList[T], galois.NumBlocks(nw, block))
	galois.ForBlocks(ctx.exFor(n), nw, block, func(b, wlo, whi int, _ *galois.Ctx) {
		produce(wlo, whi, &parts[b])
	})
	return stitch(parts)
}

// accMarks is the element-type-independent half of a push accumulator: a
// bitmap of the positions touched since the last take, the touched
// positions in scatter order, and the indices of the entries take has
// extracted (or blockedRows staged) during the current call. It lives in
// the run's workspace, one per worker, and is reused by every spmvPush and
// SpGEMM of the run whatever its element type; typed holds the *accVals of
// the type last used.
type accMarks struct {
	seen  bitmap
	touch []int32
	idx   []int32
	typed any
}

// accVals is the typed half of a push accumulator: a value slot per output
// position, and the values of the extracted entries, parallel to
// accMarks.idx.
type accVals[T any] struct {
	vals []T
	out  []T
}

// pushAcc is the dense scatter accumulator of the SAXPY kernels: one value
// slot per output position and a bitmap of the touched ones, which take
// clears in O(touched) rather than O(n). Workers reuse one accumulator
// across the blocks they happen to process, and the run reuses it across
// calls; take() extracts a block's result so reuse never leaks state
// between blocks.
type pushAcc[T any] struct {
	*accMarks
	*accVals[T]
}

// accFor returns m as an accumulator over n positions of T, growing its
// arrays when n or the element type needs it.
func accFor[T any](m *accMarks, n int) pushAcc[T] {
	if len(m.seen) < (n+63)>>6 {
		m.seen = newBitmap(n)
	}
	tv, _ := m.typed.(*accVals[T])
	if tv == nil {
		tv = new(accVals[T])
		m.typed = tv
	}
	if len(tv.vals) < n {
		tv.vals = make([]T, n)
	}
	return pushAcc[T]{m, tv}
}

// add folds p into position j under addOp.
func (a pushAcc[T]) add(j int32, p T, addOp BinaryOp[T]) {
	w, bit := &a.seen[j>>6], uint64(1)<<(uint(j)&63)
	if *w&bit == 0 {
		*w |= bit
		a.vals[j] = p
		a.touch = append(a.touch, j)
	} else {
		a.vals[j] = addOp(a.vals[j], p)
	}
}

// scanWords bounds when take reads the touched set out of the seen bitmap
// instead of sorting it: the scan when the bitmap words spanned by the
// touched positions number fewer than scanWords per position. On
// BenchmarkPushAccTake the scan stops paying between 4 and 6 words per
// entry for 32 entries and between 8 and 12 for 512 (EXPERIMENTS.md).
const scanWords = 8

// take extracts the accumulated entries sorted by index and resets the
// accumulator for reuse. Sorting makes the extracted list — and anything
// folded from it in a fixed order — independent of scatter order. A touched
// set that is dense in its span is read out of the seen bitmap word by
// word, which yields the same ascending list without a sort.
//
// The entries are appended to the accumulator's per-call output buffers,
// which the next spmvPush on the same workspace reuses: the list must be
// consumed before the kernel call that produced it returns.
func (a pushAcc[T]) take() entryList[T] {
	var out entryList[T]
	if k := len(a.touch); k > 0 {
		a.reserve(k)
		start := len(a.idx)
		lo, hi := a.touch[0], a.touch[0]
		for _, j := range a.touch {
			lo, hi = min(lo, j), max(hi, j)
		}
		if int(hi>>6-lo>>6) < scanWords*k {
			for wi := lo >> 6; wi <= hi>>6; wi++ {
				for c := a.seen[wi]; c != 0; c &= c - 1 {
					a.idx = append(a.idx, wi<<6+int32(bits.TrailingZeros64(c)))
				}
				a.seen[wi] = 0
			}
		} else {
			a.idx = append(a.idx, a.touch...)
			slices.Sort(a.idx[start:])
			for _, j := range a.touch {
				a.seen[j>>6] = 0
			}
		}
		for _, j := range a.idx[start:] {
			a.out = append(a.out, a.vals[j])
		}
		end := len(a.idx)
		out = entryList[T]{idx: a.idx[start:end:end], vals: a.out[start:end:end]}
	}
	a.touch = a.touch[:0]
	return out
}

// reserve makes room for k more entries in the output buffers, aligning
// a.out with a.idx. Buffers too small are replaced by new ones of at least
// twice the size, so a run grows them a few times and then reuses them;
// entries already extracted stay where their lists point.
func (a pushAcc[T]) reserve(k int) {
	if n := len(a.idx); cap(a.idx)-n < k || cap(a.out)-n < k {
		size := max(2*cap(a.idx), k)
		a.idx, a.out = make([]int32, 0, size), make([]T, 0, size)
	}
	a.out = a.out[:len(a.idx)]
}

// unalias guards kernel inputs against output aliasing. GraphBLAS permits an
// operation's output to appear among its inputs (LAGraph's pagerank calls
// Apply with w == u), but the kernels assume exclusive output ownership:
// mergeIntoVector mutates w, and the parallel paths read inputs from many
// workers. An aliased input is therefore snapshotted before the kernel runs.
func unalias[T any](w, u *Vector[T]) *Vector[T] {
	if u == nil || w != u {
		return u
	}
	return u.Dup()
}

// aliasAny reports whether two vectors of possibly different element types
// are the same underlying object (interface equality compares the pointers).
func aliasAny(a, b any) bool { return a == b }
