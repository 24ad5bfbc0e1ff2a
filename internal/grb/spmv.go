package grb

import (
	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// VxM computes w<mask> = u' * A under the semiring (GrB_vxm):
// w(j) = ⊕_i mul(u(i), A(i,j)) over u's explicit entries.
//
// Two kernels implement it, mirroring the push/pull duality of section II-C:
//
//   - push (SAXPY): iterate u's entries, scattering each row of A into
//     per-worker dense accumulators that are merged afterwards. Chosen for
//     sparse u (a small frontier).
//   - pull (SDOT): iterate output positions, taking a dot product of u with
//     A's column via the CSC mirror. Chosen when u is dense or the mask
//     bounds the output tightly.
func VxM[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], s Semiring[T], u *Vector[T], A *Matrix[T], desc Desc) error {
	if u.n != A.nrows {
		return errDim("VxM u", u.n, A.nrows)
	}
	if w.n != A.ncols {
		return errDim("VxM w", w.n, A.ncols)
	}
	if mask != nil && mask.n != w.n {
		return errDim("VxM mask", mask.n, w.n)
	}
	u = unalias(w, u)
	usePull := vxmUsePull(mask, u, A, desc)
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	op := "grb.VxM.push"
	if usePull {
		op = "grb.VxM.pull"
	}
	sp := trace.Begin(trace.CatKernel, op)
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	inPlace := usePull && w.rep == Dense
	var k int
	var e entryList[T]
	switch {
	case inPlace:
		k = spmvPullDense(ctx, w, mv, accum, desc.Replace, s, u, A, true, nil)
	case usePull:
		e = spmvPull(ctx, mv, s, u, A, true)
		k = len(e.idx)
	default:
		e = spmvPush(ctx, ws, mv, s, u, A, true)
		k = len(e.idx)
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// MxV computes w<mask> = A * u under the semiring (GrB_mxv):
// w(i) = ⊕_j mul(A(i,j), u(j)).
//
// The natural kernel iterates rows of A (a pull over CSR); a push kernel
// over u's entries via the CSC mirror is used for very sparse u.
func MxV[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], s Semiring[T], A *Matrix[T], u *Vector[T], desc Desc) error {
	if u.n != A.ncols {
		return errDim("MxV u", u.n, A.ncols)
	}
	if w.n != A.nrows {
		return errDim("MxV w", w.n, A.nrows)
	}
	if mask != nil && mask.n != w.n {
		return errDim("MxV mask", mask.n, w.n)
	}
	u = unalias(w, u)
	usePush := A.HasCSC() && u.rep != Dense && u.NVals() < A.nrows/16
	switch desc.Force {
	case HintPush:
		usePush = true
	case HintPull:
		usePush = false
	}
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	op := "grb.MxV.pull"
	if usePush {
		op = "grb.MxV.push"
	}
	sp := trace.Begin(trace.CatKernel, op)
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	inPlace := !usePush && w.rep == Dense
	var k int
	var e entryList[T]
	switch {
	case inPlace:
		k = spmvPullDense(ctx, w, mv, accum, desc.Replace, s, u, A, false, nil)
	case usePush:
		e = spmvPush(ctx, ws, mv, s, u, A, false)
		k = len(e.idx)
	default:
		e = spmvPull(ctx, mv, s, u, A, false)
		k = len(e.idx)
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// vxmUsePull is VxM's kernel-selection heuristic, split out so the fused
// composite kernels (fusedchains.go) pick the exact same kernel as an eager
// VxM would for the same inputs. Float addition folds in a different order
// under push vs pull, so fused results stay bit-identical to eager only if
// this choice is shared.
func vxmUsePull[T any](mask *Mask, u *Vector[T], A *Matrix[T], desc Desc) bool {
	usePull := A.HasCSC() && (u.rep == Dense && u.NVals() > A.nrows/16 ||
		mask != nil && !mask.Complement && mask.Count() < u.NVals())
	switch desc.Force {
	case HintPush:
		usePull = false
	case HintPull:
		usePull = true
	}
	return usePull
}

// spmvPush is the SAXPY kernel. For VxM (alongRows=true) it expands row
// A(i,:) for every u(i); for MxV (alongRows=false) it expands column A(:,j)
// for every u(j) via CSC.
//
// Determinism: the frontier is cut into fixed blocks (a function of its
// length alone); each block scatters into a worker-private dense accumulator
// whose contents are extracted, sorted, per block; the block partials are
// then folded in ascending block order. The add monoid is applied in an
// order fixed by the blocking, never by the schedule, so float results are
// bit-identical across executors and worker counts. The accumulators come
// from ws, so a call allocates only its output.
func spmvPush[T any](ctx *Context, ws *workspace, mask *maskView, s Semiring[T], u *Vector[T], A *Matrix[T], alongRows bool) entryList[T] {
	n := A.ncols
	if !alongRows {
		n = A.nrows
		A.EnsureCSC()
	}
	uIdx, uVals := sortedEntries(u)
	if len(uIdx) == 0 {
		return entryList[T]{}
	}
	c := perfmodel.Get()
	// Workers lazily fill their accumulator slot; partial results are
	// indexed by block so the merge order below is fixed.
	accs := ws.pushAccs(ctx.threads())
	block := ctx.blockFor(len(uIdx))
	parts := make([]entryList[T], galois.NumBlocks(len(uIdx), block))
	galois.ForBlocks(ctx.Ex, len(uIdx), block, func(b, lo, hi int, gctx *galois.Ctx) {
		m := accs[gctx.TID]
		if m == nil {
			m = new(accMarks)
			//lint:ignore sharedwrite worker-local scratch cache: slot TID is only ever touched by its own worker and never feeds the output (parts is block-indexed)
			accs[gctx.TID] = m
		}
		a := accFor[T](m, n)
		var work int64
		for k := lo; k < hi; k++ {
			i := int(uIdx[k])
			x := uVals[k]
			var cols []int32
			var vals []T
			if alongRows {
				cols, vals = A.Row(i)
			} else {
				cols, vals = A.Col(i)
			}
			work += int64(len(cols))
			if c != nil {
				c.Load(A.slot, perfmodel.KRowPtr, i, 8)
				c.LoadRange(A.slot, perfmodel.KColIdx, 0, len(cols), 4)
				c.LoadRange(A.slot, perfmodel.KVals, 0, len(vals), 8)
				c.Load(u.slot, perfmodel.KVecVals, i, 8)
				c.Instr(2 * len(cols))
			}
			for e2, j := range cols {
				if !mask.allows(int(j)) {
					continue
				}
				// Operand order follows the operation: VxM multiplies
				// u(i)*A(i,j), MxV multiplies A(i,j)*u(j). Non-commutative
				// semirings (min_second) depend on it.
				var p T
				if alongRows {
					p = s.Mul(x, vals[e2])
				} else {
					p = s.Mul(vals[e2], x)
				}
				a.add(j, p, s.Add.Op)
				if c != nil {
					c.Store(0, perfmodel.KAux, int(j), 8)
				}
			}
		}
		parts[b] = a.take()
		gctx.Work(work)
	})
	if len(parts) == 1 {
		return parts[0]
	}
	// Ordered reduction: fold block partials in ascending block order into
	// one accumulator, empty again now that every block has taken its
	// result. Serial, but over the (small) touched sets only.
	if accs[0] == nil {
		accs[0] = new(accMarks)
	}
	final := accFor[T](accs[0], n)
	for _, part := range parts {
		for k, j := range part.idx {
			final.add(j, part.vals[k], s.Add.Op)
		}
	}
	return final.take()
}

// pullDot returns the SDOT kernel's dot product for one output position.
// For VxM (alongCols=true) it walks column A(:,j) via CSC; for MxV it walks
// row A(i,:). u is densified once so probes are O(1). Each output
// position's dot product is self-contained, so results are not just
// schedule-independent but blocking-independent too (the metamorphic tests
// exploit this), and either driver below gives the same values. Semirings
// with a typed loop (typed.go) get it instead of the generic one.
func pullDot[T any](s Semiring[T], u *Vector[T], A *Matrix[T], alongCols bool) func(j int, gctx *galois.Ctx) (T, bool) {
	if alongCols {
		A.EnsureCSC()
	}
	ud := densified(u)
	c := perfmodel.Get()
	if dot := typedPullDot(s.kind, ud, A, alongCols, c); dot != nil {
		return dot
	}
	return func(j int, gctx *galois.Ctx) (T, bool) {
		var rows []int32
		var vals []T
		if alongCols {
			rows, vals = A.Col(j)
		} else {
			rows, vals = A.Row(j)
		}
		gctx.Work(int64(len(rows)))
		if c != nil {
			pullCost(c, A.slot, j, len(rows))
		}
		acc := s.Add.Identity
		hit := false
		for e2, i := range rows {
			if !ud.present.get(int(i)) {
				continue
			}
			var p T
			if alongCols {
				p = s.Mul(ud.dense[i], vals[e2])
			} else {
				p = s.Mul(vals[e2], ud.dense[i])
			}
			if c != nil {
				c.Load(ud.slot, perfmodel.KVecVals, int(i), 8)
			}
			if !hit {
				acc, hit = p, true
			} else {
				acc = s.Add.Op(acc, p)
			}
			if s.Add.Terminal != nil && any(acc) == any(*s.Add.Terminal) {
				break
			}
		}
		return acc, hit
	}
}

// spmvPull is the SDOT kernel producing an entry list: per-block output
// lists stitched in block order. The fused kernels and non-Dense outputs
// use it.
func spmvPull[T any](ctx *Context, mask *maskView, s Semiring[T], u *Vector[T], A *Matrix[T], alongCols bool) entryList[T] {
	n := A.ncols
	if !alongCols {
		n = A.nrows
	}
	dot := pullDot(s, u, A, alongCols)
	return blockedEntries(ctx, n, func(lo, hi int, gctx *galois.Ctx, part *entryList[T]) {
		for j := lo; j < hi; j++ {
			if !mask.allows(j) {
				continue
			}
			if acc, hit := dot(j, gctx); hit {
				part.idx = append(part.idx, int32(j))
				part.vals = append(part.vals, acc)
			}
		}
	})
}

// spmvPullDense is the SDOT kernel writing a Dense w in place, returning
// how many positions it computed. A non-nil op is applied to every dot
// product before it is written (the fused VxM-then-Apply).
func spmvPullDense[T any](ctx *Context, w *Vector[T], mask *maskView, accum BinaryOp[T], replace bool, s Semiring[T], u *Vector[T], A *Matrix[T], alongCols bool, op UnaryOp[T]) int {
	dot := pullDot(s, u, A, alongCols)
	return writeDense(ctx, w, mask, accum, replace, nil, nil, false,
		func(j int, _, _ T, _, _ bool, gctx *galois.Ctx) (T, bool) {
			z, ok := dot(j, gctx)
			if ok && op != nil {
				z = op(z)
			}
			return z, ok
		})
}
