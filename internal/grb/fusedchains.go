package grb

import (
	"math/bits"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// This file holds the composite kernels the fusion planner (internal/fuse)
// lowers matched DAG windows onto. Each kernel replaces a chain of eager
// grb calls with a single (or two-phase) traversal, eliding the chain's
// intermediate materializations: mask bitmaps, alias snapshots, densified
// copies, and the entry lists the eager schedule would have produced and
// immediately consumed.
//
// The contract, enforced by internal/verify's fused differential suite, is
// bit-identity: a fused kernel must produce exactly the bytes the eager
// chain would have, on every executor and worker count. Three rules make
// that hold:
//
//   - Embedded SpMVs go through the same spmvPush/spmvPull/spmvPullDense
//     code as VxM, selected by the shared vxmUsePull heuristic (float
//     addition folds in a kernel-specific order, so the *choice* must
//     match too).
//   - Parallel phases follow the PR 4 blocking discipline: per-block
//     partials stitched in ascending block order, or in-place writes to
//     positions owned by exactly one loop iteration.
//   - In-place updates of a vector's dense value slots require the vector
//     to be FullyDense, so the presence bitmap — whose words straddle
//     block boundaries — is never written concurrently.
//
// Kernels report runtime applicability as a bool: false means a
// precondition only checkable at execution time (representation, density,
// aliasing) failed and the caller must fall back to the eager chain. The
// fallback produces identical results — fusion here is purely an
// optimization, never a semantic change.

// FusedStats reports what a fused kernel saved and touched, for the
// executor's fused-category trace span.
type FusedStats struct {
	// Elided counts bytes of intermediate materializations the eager chain
	// would have allocated and this kernel did not: mask bitmaps, alias
	// snapshots (Dup), densified copies, and intermediate entry lists. The
	// eager kernels now read masks over Dense sources and eWiseAdd's sparse
	// operand in place, so for those items the figure is the fusion
	// ledger's fixed unit, not what an eager run allocates.
	Elided int64
	// NNZIn / NNZOut are the chain's input and output nonzeros.
	NNZIn  int64
	NNZOut int64
}

// bitmapBytes is the materialized size of an n-position presence bitmap or
// mask pattern, matching the accounting Convert and AssignConstant use.
func bitmapBytes(n int) int64 { return int64(n+7) / 8 }

// FusedAssignExpand fuses the BFS round body
//
//	AssignConstant(dist<struct(frontier)> = level)
//	VxM(frontier<!value(dist)> = frontier ⊗ A, lor_land, replace)
//
// into one pass over the frontier: phase A stamps the level at every
// frontier position, phase B expands frontier rows marking the neighbors the
// (complemented value) mask admits — i.e. positions whose dist value is
// still zero — in a bitmap the next frontier is read out of in index order.
// No mask bitmap, assign entry list, or alias snapshot is ever built. dist
// is never claimed by a discovery CAS: the two phases preserve the eager
// chain's pure window semantics exactly, so the result is the same for any
// T, semiring aside (the pattern is only matched for lor_land, where
// duplicate discoveries fold to the same value anyway).
//
// dist must be FullyDense (reported via the applied return); frontier may
// be any representation and is replaced with the next frontier.
func FusedAssignExpand[T comparable](ctx *Context, dist *Vector[T], level T, frontier *Vector[bool], A *Matrix[bool]) (FusedStats, bool, error) {
	var stats FusedStats
	n := A.NRows()
	if dist.n != n || frontier.n != A.ncols {
		return stats, false, errDim("FusedAssignExpand", dist.n, n)
	}
	if !dist.FullyDense() || aliasAny(dist, frontier) {
		return stats, false, nil
	}
	sp := trace.Begin(trace.CatKernel, "grb.FusedAssignExpand")
	defer sp.End()
	sp.Workers = int64(ctx.threads())

	// A Sorted or List frontier is read in place: its entries are distinct,
	// neither phase depends on their order, and it is rewritten only after
	// both. Dense and Bitmap frontiers are read through a sorted copy.
	inPlace := frontier.rep == Sorted || frontier.rep == List
	fIdx := frontier.idx
	if !inPlace {
		fIdx, _ = sortedEntries(frontier)
	}
	nf := len(fIdx)
	sp.NNZIn = int64(nf)
	stats.NNZIn = int64(nf)
	var zero T
	block := ctx.blockFor(nf)

	// Phase A: stamp the level at frontier positions. Disjoint dense slots,
	// no presence writes (dist is fully dense), so blocks race-free.
	galois.ForBlocks(ctx.exFor(nf), nf, block, func(b, lo, hi int, gctx *galois.Ctx) {
		for k := lo; k < hi; k++ {
			dist.dense[fIdx[k]] = level
		}
		gctx.Work(int64(hi - lo))
	})

	// Phase B: expand. The ForBlocks barrier above guarantees every stamp
	// is visible; dist is read-only from here, exactly like the eager VxM
	// reading a mask built after the assign completed. Each admitted
	// neighbour sets its bit in a word-atomic bitmap, so duplicate
	// discoveries collapse as they happen. The bitmap is the run's
	// workspace scratch, all zero between calls: the read-out below clears
	// every word it visits.
	ws := ctx.acquire()
	defer ctx.release(ws)
	nw := (A.ncols + 63) >> 6
	if len(ws.scratch) < nw {
		ws.scratch = newBitmap(A.ncols)
	}
	next := ws.scratch[:nw]
	galois.ForBlocks(ctx.exFor(pushWork(nf, A)), nf, block, func(b, lo, hi int, gctx *galois.Ctx) {
		var work int64
		for k := lo; k < hi; k++ {
			cols, _ := A.Row(int(fIdx[k]))
			work += int64(len(cols))
			for _, j := range cols {
				if dist.dense[j] == zero {
					next.setAtomic(int(j))
				}
			}
		}
		gctx.Work(work)
	})
	// Read the next frontier out in index order: the sorted deduplicated
	// set the eager push accumulator produces, so valid for a Sorted or a
	// List frontier, which take it into their own arrays; the others go
	// through an entry list.
	e := entryList[bool]{}
	if inPlace {
		e.idx, e.vals = frontier.idx[:0], frontier.vals[:0]
	}
	for wi, w := range next {
		if w == 0 {
			continue
		}
		next[wi] = 0
		for ; w != 0; w &= w - 1 {
			e.idx = append(e.idx, int32(wi<<6+bits.TrailingZeros64(w)))
			e.vals = append(e.vals, true)
		}
	}
	m := len(e.idx)

	sp.NNZOut = int64(m)
	sp.Bytes = entryBytes[bool](m)
	stats.NNZOut = int64(m)
	// Eager would materialize: the struct mask of the frontier and the
	// complemented value mask of dist (one bitmap each), the assign's entry
	// list over the frontier, and VxM's alias snapshot of the frontier.
	stats.Elided = 2*bitmapBytes(n) + entryBytes[T](nf) + entryBytes[bool](nf)
	if inPlace {
		frontier.idx, frontier.vals = e.idx, e.vals
		if c := perfmodel.Get(); c != nil {
			c.StoreRange(frontier.slot, perfmodel.KVecIdx, 0, m, 4)
			c.StoreRange(frontier.slot, perfmodel.KVecVals, 0, m, 8)
			c.Instr(m)
		}
	} else {
		mergeIntoVector(frontier, e, nil, true)
	}
	return stats, true, nil
}

// FusedVxMApply fuses
//
//	VxM(w = u ⊗ A, s, replace)
//	Apply(w = op(w), replace)
//
// by applying op to each SpMV result before it reaches w — in place for a
// pull into a Dense w, as eager VxM writes, else over the SpMV's entry list
// before one merge — skipping the intermediate merge, Apply's alias
// snapshot of w, and the re-traversal entry list. Legal for any
// representation of w: it commits exactly the entries the eager pair would.
func FusedVxMApply[T any](ctx *Context, w *Vector[T], s Semiring[T], u *Vector[T], A *Matrix[T], op UnaryOp[T], desc Desc) (FusedStats, bool, error) {
	var stats FusedStats
	if u.n != A.nrows {
		return stats, false, errDim("FusedVxMApply u", u.n, A.nrows)
	}
	if w.n != A.ncols {
		return stats, false, errDim("FusedVxMApply w", w.n, A.ncols)
	}
	u = unalias(w, u)
	usePull := vxmUsePull(nil, u, A, desc)
	name := "grb.FusedVxMApply.push"
	if usePull {
		name = "grb.FusedVxMApply.pull"
	}
	sp := trace.Begin(trace.CatKernel, name)
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	stats.NNZIn = int64(u.NVals())

	inPlace := usePull && w.rep == Dense
	var k int
	var e entryList[T]
	switch {
	case inPlace:
		k = spmvPullDense(ctx, w, nil, nil, desc.Replace, s, u, A, true, op)
	case usePull:
		e = spmvPull(ctx, nil, s, u, A, true)
	default:
		// e lives in ws's buffers until the workspace is released.
		ws := ctx.acquire()
		defer ctx.release(ws)
		e = spmvPush(ctx, ws, nil, s, u, A, true)
	}
	if !inPlace {
		galois.ForBlocks(ctx.exFor(len(e.vals)), len(e.vals), ctx.blockFor(len(e.vals)), func(b, lo, hi int, gctx *galois.Ctx) {
			for k := lo; k < hi; k++ {
				e.vals[k] = op(e.vals[k])
			}
			gctx.Work(int64(hi - lo))
		})
		k = len(e.idx)
	}
	stats.NNZOut = int64(k)
	// Eager would materialize: Apply's alias snapshot of w (w holds the
	// SpMV result by then) and Apply's output entry list. The intermediate
	// merge into w is saved too but overlaps the final merge byte-for-byte,
	// so only the snapshot is counted.
	if w.rep == Dense {
		stats.Elided = int64(w.n)*elemBytes[T]() + bitmapBytes(w.n) + entryBytes[T](k)
	} else {
		stats.Elided = 2 * entryBytes[T](k)
	}
	commit(&sp, w, inPlace, k, e, nil, desc.Replace)
	return stats, true, nil
}

// FusedFoldScale fuses the two full-width residual passes of PageRank —
//
//	EWiseAdd(w1 = addOp(w1, x))            // pr += res
//	EWiseMult(w2 = mulOp(x, y), replace)   // contrib = res * invdeg
//
// — into one blocked pass reading x and y once, the exact fusion
// opportunity the study's section V names as inexpressible in the bulk
// matrix API. Eager evaluation snapshots both EWiseAdd operands (two
// full-width Dups) and produces two n-entry lists; the fused pass writes
// both outputs in place.
//
// x may be partially dense (after the first iteration PageRank's residual
// only has entries at columns with in-edges): positions without an x entry
// keep w1's value and leave w2 empty, exactly the union/intersection
// semantics of the eager pair. Requires w1 and y fully dense and x, w2
// Dense, all with w1, w2 distinct from everything — reported via the
// applied return, falling back to the eager pair otherwise.
func FusedFoldScale[T any](ctx *Context, w1 *Vector[T], addOp BinaryOp[T], x, y, w2 *Vector[T], mulOp BinaryOp[T]) (FusedStats, bool, error) {
	var stats FusedStats
	n := w1.n
	if x.n != n || y.n != n || w2.n != n {
		return stats, false, errDim("FusedFoldScale", x.n, n)
	}
	if !w1.FullyDense() || !y.FullyDense() || x.rep != Dense || w2.rep != Dense ||
		aliasAny(w1, x) || aliasAny(w1, y) || aliasAny(w1, w2) ||
		aliasAny(w2, x) || aliasAny(w2, y) {
		return stats, false, nil
	}
	sp := trace.Begin(trace.CatKernel, "grb.FusedFoldScale")
	defer sp.End()
	nx := x.NVals()
	sp.NNZIn = int64(n + nx)
	sp.NNZOut = int64(n + nx)
	sp.Workers = int64(ctx.threads())

	// Parallel phase: value slots only. w1 keeps its (full) pattern; w2's
	// slots outside x's pattern are zeroed like the eager replace-merge's
	// Clear would. The presence bitmaps are read, never written — their
	// words straddle block boundaries.
	var zero T
	galois.ForBlocks(ctx.exFor(n), n, ctx.blockFor(n), func(b, lo, hi int, gctx *galois.Ctx) {
		for i := lo; i < hi; i++ {
			if x.present.get(i) {
				xi := x.dense[i]
				w1.dense[i] = addOp(w1.dense[i], xi)
				w2.dense[i] = mulOp(xi, y.dense[i])
			} else {
				w2.dense[i] = zero
			}
		}
		gctx.Work(int64(hi - lo))
	})
	// w2's pattern becomes x's pattern (the eager intersection with fully
	// dense y), committed serially after the barrier.
	copy(w2.present, x.present)
	w2.ndense = nx
	stats.NNZIn = int64(n + nx)
	stats.NNZOut = int64(n + nx)
	// Eager would materialize: EWiseAdd's two full-width operand snapshots,
	// its n-entry union list, and EWiseMult's entry list over x's pattern.
	stats.Elided = 2*(int64(n)*elemBytes[T]()+bitmapBytes(n)) + entryBytes[T](n) + entryBytes[T](nx)
	return stats, true, nil
}

// FusedRelax fuses the delta-stepping light-edge relaxation chain
//
//	q = VxM(u ⊗ A, min_plus, replace)                 // tentative offers
//	imp = EWiseMult(ltOp(q, t), replace)              // strictly better?
//	t = EWiseAdd(minOp(t, q))                         // commit improvements
//	next = Select(keep(q))<value(imp)> (replace)      // next light frontier
//
// into the SpMV plus a single pass over its entry list: per offer, read the
// old tentative distance, decide improvement, write the min in place, and
// emit the entry into the next frontier if it improved and keep admits it.
// The offers list q is deduplicated and index-sorted (a property of both
// SpMV kernels), so every entry owns its position and in-place writes to t
// are race-free and order-independent — matching the eager chain, which
// reads all of t (snapshot) before writing any of it.
//
// Requires t fully dense, u and next distinct from t — reported via the
// applied return. q and imp are never materialized; the caller must have
// proven them dead after the chain.
func FusedRelax[T comparable](ctx *Context, next, t *Vector[T], s Semiring[T], u *Vector[T], A *Matrix[T], ltOp, minOp BinaryOp[T], keep IndexedPredicate[T], desc Desc) (FusedStats, bool, error) {
	var stats FusedStats
	if u.n != A.nrows {
		return stats, false, errDim("FusedRelax u", u.n, A.nrows)
	}
	if t.n != A.ncols || next.n != A.ncols {
		return stats, false, errDim("FusedRelax t", t.n, A.ncols)
	}
	if !t.FullyDense() || aliasAny(t, u) || aliasAny(t, next) || aliasAny(u, next) {
		return stats, false, nil
	}
	usePull := vxmUsePull(nil, u, A, desc)
	name := "grb.FusedRelax.push"
	if usePull {
		name = "grb.FusedRelax.pull"
	}
	sp := trace.Begin(trace.CatKernel, name)
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	stats.NNZIn = int64(u.NVals())

	var e entryList[T]
	if usePull {
		e = spmvPull(ctx, nil, s, u, A, true)
	} else {
		// e lives in ws's buffers until the workspace is released.
		ws := ctx.acquire()
		defer ctx.release(ws)
		e = spmvPush(ctx, ws, nil, s, u, A, true)
	}
	var zero T
	block := ctx.blockFor(len(e.idx))
	parts := make([]entryList[T], galois.NumBlocks(len(e.idx), block))
	galois.ForBlocks(ctx.exFor(len(e.idx)), len(e.idx), block, func(b, lo, hi int, gctx *galois.Ctx) {
		out := &parts[b]
		for k := lo; k < hi; k++ {
			i := e.idx[k]
			v := e.vals[k]
			told := t.dense[i]
			improved := ltOp(v, told) != zero
			t.dense[i] = minOp(told, v)
			if improved && keep(v, int(i), 0) {
				out.idx = append(out.idx, i)
				out.vals = append(out.vals, v)
			}
		}
		gctx.Work(int64(hi - lo))
	})
	ne := stitch(parts)
	sp.NNZOut = int64(len(ne.idx))
	sp.Bytes = entryBytes[T](len(ne.idx))
	stats.NNZOut = int64(len(ne.idx))
	nq := len(e.idx)
	n := t.n
	// Eager would materialize: the q and imp vectors (one entry list copy
	// each), imp's value-mask bitmap, EWiseAdd's two full-width operand
	// snapshots (q is densified for the union pass), and EWiseAdd's n-entry
	// output list.
	stats.Elided = 2*entryBytes[T](nq) + bitmapBytes(n) +
		2*(int64(n)*elemBytes[T]()+bitmapBytes(n)) + entryBytes[T](n)
	mergeIntoVector(next, ne, nil, true)
	return stats, true, nil
}

// FusedVxMAccum fuses
//
//	q = VxM(u ⊗ A, s, replace)   // q a dead temporary
//	t = EWiseAdd(op(t, q))
//
// by folding the SpMV's entry list straight into t's dense slots, skipping
// q, EWiseAdd's two full-width snapshots, and its n-entry output list.
// Positions outside q's pattern keep their value, which the eager union
// pass rewrites unchanged — unobservable. Requires t fully dense and
// distinct from u.
func FusedVxMAccum[T any](ctx *Context, t *Vector[T], op BinaryOp[T], s Semiring[T], u *Vector[T], A *Matrix[T], desc Desc) (FusedStats, bool, error) {
	var stats FusedStats
	if u.n != A.nrows {
		return stats, false, errDim("FusedVxMAccum u", u.n, A.nrows)
	}
	if t.n != A.ncols {
		return stats, false, errDim("FusedVxMAccum t", t.n, A.ncols)
	}
	if !t.FullyDense() || aliasAny(t, u) {
		return stats, false, nil
	}
	usePull := vxmUsePull(nil, u, A, desc)
	name := "grb.FusedVxMAccum.push"
	if usePull {
		name = "grb.FusedVxMAccum.pull"
	}
	sp := trace.Begin(trace.CatKernel, name)
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	stats.NNZIn = int64(u.NVals())

	var e entryList[T]
	if usePull {
		e = spmvPull(ctx, nil, s, u, A, true)
	} else {
		// e lives in ws's buffers until the workspace is released.
		ws := ctx.acquire()
		defer ctx.release(ws)
		e = spmvPush(ctx, ws, nil, s, u, A, true)
	}
	galois.ForBlocks(ctx.exFor(len(e.idx)), len(e.idx), ctx.blockFor(len(e.idx)), func(b, lo, hi int, gctx *galois.Ctx) {
		for k := lo; k < hi; k++ {
			i := e.idx[k]
			t.dense[i] = op(t.dense[i], e.vals[k])
		}
		gctx.Work(int64(hi - lo))
	})
	sp.NNZOut = int64(len(e.idx))
	stats.NNZOut = int64(len(e.idx))
	n := t.n
	// Eager would materialize: the q vector (entry list copy), EWiseAdd's
	// two full-width snapshots (q densified for the union pass), and its
	// n-entry output list.
	stats.Elided = entryBytes[T](len(e.idx)) +
		2*(int64(n)*elemBytes[T]()+bitmapBytes(n)) + entryBytes[T](n)
	return stats, true, nil
}
