package grb

import (
	"fmt"
	"math/bits"
	"unsafe"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// errDim builds a dimension-mismatch error.
func errDim(op string, got, want int) error {
	return fmt.Errorf("grb: %s: dimension %d, want %d", op, got, want)
}

// elemBytes is the in-memory size of the vector/matrix element type, used
// to tag trace spans with materialized-byte counts.
func elemBytes[T any]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// entryBytes is the materialized size of k sparse entries: a 4-byte index
// plus the element per entry.
func entryBytes[T any](k int) int64 { return int64(k) * (4 + elemBytes[T]()) }

// entryList is the raw result of a kernel before mask/accum/replace
// application: parallel (index, value) slices, unordered, duplicate-free.
type entryList[T any] struct {
	idx  []int32
	vals []T
}

// mergeIntoVector commits computed entries into w under GraphBLAS
// mask/accumulate/replace semantics. Entries must already be mask-filtered.
//
//   - Replace: w's previous entries are discarded; the computed entries
//     become the whole vector.
//   - No replace, accum == nil: computed entries overwrite (or create) their
//     positions; others are untouched.
//   - No replace, accum != nil: computed entries fold into existing values
//     with accum (or create their position).
func mergeIntoVector[T any](w *Vector[T], e entryList[T], accum BinaryOp[T], replace bool) {
	c := perfmodel.Get()
	if replace {
		w.Clear()
	}
	if w.rep == Dense {
		for k, ix := range e.idx {
			i := int(ix)
			if accum != nil && w.present.get(i) {
				w.dense[i] = accum(w.dense[i], e.vals[k])
			} else {
				if !w.present.get(i) {
					w.present.set(i)
					w.ndense++
				}
				w.dense[i] = e.vals[k]
			}
		}
		if c != nil {
			c.StoreRange(w.slot, perfmodel.KVecVals, 0, len(e.idx), 8)
			c.Instr(len(e.idx))
		}
		return
	}
	if replace || w.NVals() == 0 {
		// Fast path: w is exactly the computed entries.
		w.idx = append(w.idx[:0], e.idx...)
		w.vals = append(w.vals[:0], e.vals...)
		if w.rep == Sorted {
			sortEntries(w.idx, w.vals)
		}
		if w.rep == Bitmap {
			if w.present == nil {
				w.present = newBitmap(w.n)
			}
			for _, ix := range w.idx {
				w.present.set(int(ix))
			}
		}
		if c != nil {
			c.StoreRange(w.slot, perfmodel.KVecIdx, 0, len(e.idx), 4)
			c.StoreRange(w.slot, perfmodel.KVecVals, 0, len(e.idx), 8)
			c.Instr(len(e.idx))
		}
		return
	}
	for k, ix := range e.idx {
		i := int(ix)
		if old, ok := w.ExtractElement(i); ok && accum != nil {
			w.SetElement(i, accum(old, e.vals[k]))
		} else {
			w.SetElement(i, e.vals[k])
		}
	}
	if c != nil {
		c.StoreRange(w.slot, perfmodel.KVecVals, 0, len(e.idx), 8)
		c.Instr(2 * len(e.idx))
	}
}

// AssignConstant implements GrB_assign of a scalar to all positions the mask
// allows: w<mask>(i) = value. LAGraph bfs uses it both to densify dist and
// to write the level into the frontier's positions each round.
func AssignConstant[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], value T, desc Desc) error {
	if mask != nil && mask.n != w.n {
		return errDim("AssignConstant mask", mask.n, w.n)
	}
	sp := trace.Begin(trace.CatKernel, "grb.AssignConstant")
	defer sp.End()
	sp.Workers = int64(ctx.threads())
	c := perfmodel.Get()
	if mask == nil && !desc.Replace && accum == nil {
		if c != nil {
			c.StoreRange(w.slot, perfmodel.KVecVals, 0, w.n, 8)
			c.Instr(w.n)
		}
		w.DenseFill(value)
		// Densifying the whole vector is a materialization: n elements
		// plus the presence bitmap.
		sp.NNZOut = int64(w.n)
		sp.Bytes = int64(w.n)*elemBytes[T]() + int64(w.n+7)/8
		return nil
	}
	// A Dense w is written in place; otherwise the assigned positions are
	// computed as an entry list, in parallel over fixed blocks of the index
	// space.
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	inPlace := w.rep == Dense
	var k int
	var e entryList[T]
	if inPlace {
		k = writeDense(ctx, w, mv, accum, desc.Replace, nil, nil, false, 0,
			func(int, T, T, bool, bool, *galois.Ctx) (T, bool) { return value, true })
	} else {
		e = blockedEntries(ctx, w.n, w.n, func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
			mv.forEachIn(lo, hi, w.n, func(i int) {
				out.idx = append(out.idx, int32(i))
				out.vals = append(out.vals, value)
			})
		})
		k = len(e.idx)
	}
	if c != nil {
		if mask != nil && !mask.Complement {
			c.LoadRange(0, perfmodel.KAux, 0, k, 8)
		} else {
			c.LoadRange(0, perfmodel.KAux, 0, w.n, 8)
		}
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// Apply implements GrB_apply: w<mask> = op(u) over u's explicit entries.
func Apply[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], op UnaryOp[T], u *Vector[T], desc Desc) error {
	if u.n != w.n {
		return errDim("Apply", u.n, w.n)
	}
	if mask != nil && mask.n != w.n {
		return errDim("Apply mask", mask.n, w.n)
	}
	sp := trace.Begin(trace.CatKernel, "grb.Apply")
	defer sp.End()
	nu := u.NVals()
	sp.NNZIn = int64(nu)
	sp.Workers = int64(ctx.threads())
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	inPlace := w.rep == Dense
	var k int
	var e entryList[T]
	if inPlace {
		k = writeDense(ctx, w, mv, accum, desc.Replace, u, nil, false, 0,
			func(_ int, x, _ T, _, _ bool, _ *galois.Ctx) (T, bool) { return op(x), true })
	} else {
		u = unalias(w, u)
		uIdx, uVals := sortedEntries(u)
		e = blockedEntries(ctx, len(uIdx), len(uIdx), func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
			for k := lo; k < hi; k++ {
				if i := uIdx[k]; mv.allows(int(i)) {
					out.idx = append(out.idx, i)
					out.vals = append(out.vals, op(uVals[k]))
				}
			}
		})
		k = len(e.idx)
	}
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(u.slot, perfmodel.KVecVals, 0, nu, 8)
		c.Instr(nu)
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// densified returns u itself when it is Dense, else a Dense copy of it; the
// densification is charged to a grb.Convert span.
func densified[T any](u *Vector[T]) *Vector[T] {
	if u.rep == Dense {
		return u
	}
	d := u.Dup()
	d.Convert(Dense)
	return d
}

// EWiseAdd implements GrB_eWiseAdd: the pattern union of u and v; positions
// in both get op(u, v), positions in one keep that operand's value.
func EWiseAdd[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], op BinaryOp[T], u, v *Vector[T], desc Desc) error {
	if u.n != w.n || v.n != w.n {
		return errDim("EWiseAdd", u.n, w.n)
	}
	sp := trace.Begin(trace.CatKernel, "grb.EWiseAdd")
	defer sp.End()
	sp.NNZIn = int64(u.NVals() + v.NVals())
	sp.Workers = int64(ctx.threads())
	union := func(_ int, x, y T, hx, hy bool, _ *galois.Ctx) (T, bool) {
		switch {
		case hx && hy:
			return op(x, y), true
		case hx:
			return x, true
		}
		return y, true
	}
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	inPlace := w.rep == Dense
	var k int
	var e entryList[T]
	switch {
	case inPlace && mask == nil && accum == nil && !desc.Replace && u != v &&
		(w == u && v.rep != Dense || w == v && u.rep != Dense):
		// w = op(w, v) (or op(u, w)): w's entries outside the sparse
		// operand keep their value, so only the operand's entries are
		// visited.
		k = foldSparse(w, u, v, op)
	case inPlace:
		// Operands are read in place: a Sorted one through its entries,
		// a List or Bitmap one through a sorted copy of them.
		k = writeDense(ctx, w, mv, accum, desc.Replace, u, v, true, 0, union)
	default:
		// Both operands are read densified; a Dense operand is read in
		// place, and only a sparse one is copied (charged to a grb.Convert
		// span).
		ud, vd := densified(u), densified(v)
		e = blockedEntries(ctx, w.n, w.n, func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
			for i := lo; i < hi; i++ {
				up, vp := ud.present.get(i), vd.present.get(i)
				if !up && !vp || !mv.allows(i) {
					continue
				}
				val, _ := union(i, ud.dense[i], vd.dense[i], up, vp, gctx)
				out.idx = append(out.idx, int32(i))
				out.vals = append(out.vals, val)
			}
		})
		k = len(e.idx)
	}
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(u.slot, perfmodel.KVecVals, 0, w.n, 8)
		c.LoadRange(v.slot, perfmodel.KVecVals, 0, w.n, 8)
		c.Instr(w.n)
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// foldSparse is EWiseAdd's path for a Dense w that aliases one operand
// while the other is sparse: it folds the sparse operand's entries into w
// in place, keeping the operand order of op(u, v), and returns the union
// count the general path would have computed. Serial: the entries are
// distinct positions, but presence words are shared between them.
func foldSparse[T any](w, u, v *Vector[T], op BinaryOp[T]) int {
	other, wFirst := v, true
	if w == v {
		other, wFirst = u, false
	}
	for k, ix := range other.idx {
		i := int(ix)
		x := other.vals[k]
		switch {
		case !w.present.get(i):
			w.present.set(i)
			w.ndense++
			w.dense[i] = x
		case wFirst:
			w.dense[i] = op(w.dense[i], x)
		default:
			w.dense[i] = op(x, w.dense[i])
		}
	}
	return w.ndense
}

// EWiseMult implements GrB_eWiseMult: the pattern intersection of u and v.
func EWiseMult[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], op BinaryOp[T], u, v *Vector[T], desc Desc) error {
	if u.n != w.n || v.n != w.n {
		return errDim("EWiseMult", u.n, w.n)
	}
	sp := trace.Begin(trace.CatKernel, "grb.EWiseMult")
	defer sp.End()
	sp.NNZIn = int64(u.NVals() + v.NVals())
	sp.Workers = int64(ctx.threads())
	inPlace := w.rep == Dense
	if !inPlace {
		u, v = unalias(w, u), unalias(w, v)
	}
	// The entry-list path iterates the sparser operand, probing the other.
	a, b := u, v
	if b.NVals() < a.NVals() {
		a, b = b, a
	}
	na := a.NVals()
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	var k int
	var e entryList[T]
	if inPlace {
		k = writeDense(ctx, w, mv, accum, desc.Replace, u, v, false, 0,
			func(_ int, x, y T, _, _ bool, _ *galois.Ctx) (T, bool) { return op(x, y), true })
	} else {
		swapped := a != u
		aIdx, aVals := sortedEntries(a)
		e = blockedEntries(ctx, len(aIdx), len(aIdx), func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
			for k := lo; k < hi; k++ {
				i := int(aIdx[k])
				bv, ok := b.ExtractElement(i)
				if !ok || !mv.allows(i) {
					continue
				}
				var val T
				if swapped {
					val = op(bv, aVals[k])
				} else {
					val = op(aVals[k], bv)
				}
				out.idx = append(out.idx, int32(i))
				out.vals = append(out.vals, val)
			}
		})
		k = len(e.idx)
	}
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(a.slot, perfmodel.KVecVals, 0, na, 8)
		c.LoadRange(b.slot, perfmodel.KVecVals, 0, na, 8)
		c.Instr(na)
	}
	commit(&sp, w, inPlace, k, e, accum, desc.Replace)
	return nil
}

// SelectVector implements GrB_select on vectors: w<mask> = entries of u
// where pred holds.
func SelectVector[T any](ctx *Context, w *Vector[T], mask *Mask, pred IndexedPredicate[T], u *Vector[T], desc Desc) error {
	if u.n != w.n {
		return errDim("SelectVector", u.n, w.n)
	}
	sp := trace.Begin(trace.CatKernel, "grb.Select")
	defer sp.End()
	nu := u.NVals()
	sp.NNZIn = int64(nu)
	sp.Workers = int64(ctx.threads())
	ws := ctx.acquire()
	defer ctx.release(ws)
	mv := ws.bind(mask)
	inPlace := w.rep == Dense
	var k int
	var e entryList[T]
	switch {
	case inPlace:
		k = writeDense(ctx, w, mv, nil, desc.Replace, u, nil, false, 0,
			func(i int, x, _ T, _, _ bool, _ *galois.Ctx) (T, bool) { return x, pred(x, i, 0) })
	case u.rep == Dense:
		// Read u's presence words in place, a block of words at a time,
		// rather than copying its entries out first.
		e = blockedWords(ctx, u.n, func(wlo, whi int, out *entryList[T]) {
			for wi := wlo; wi < whi; wi++ {
				base := wi << 6
				for c := u.present[wi] & mv.word(wi, u.n); c != 0; c &= c - 1 {
					i := base + bits.TrailingZeros64(c)
					if x := u.dense[i]; pred(x, i, 0) {
						out.idx = append(out.idx, int32(i))
						out.vals = append(out.vals, x)
					}
				}
			}
		})
		k = len(e.idx)
	default:
		u = unalias(w, u)
		uIdx, uVals := sortedEntries(u)
		e = blockedEntries(ctx, len(uIdx), len(uIdx), func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
			for k := lo; k < hi; k++ {
				i := int(uIdx[k])
				if pred(uVals[k], i, 0) && mv.allows(i) {
					out.idx = append(out.idx, int32(i))
					out.vals = append(out.vals, uVals[k])
				}
			}
		})
		k = len(e.idx)
	}
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(u.slot, perfmodel.KVecVals, 0, nu, 8)
		c.Instr(nu)
	}
	commit(&sp, w, inPlace, k, e, nil, desc.Replace)
	return nil
}

// ReduceVector folds all explicit entries of u under the monoid
// (GrB_reduce to scalar). Each fixed block of the index space folds to a
// partial starting from the identity; partials merge in ascending block
// order (galois.OrderedReduce), so the result is bit-identical on every
// executor and worker count even for float monoids.
func ReduceVector[T any](ctx *Context, m Monoid[T], u *Vector[T]) T {
	sp := trace.Begin(trace.CatKernel, "grb.Reduce")
	defer sp.End()
	sp.NNZIn = int64(u.NVals())
	sp.Workers = int64(ctx.threads())
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(u.slot, perfmodel.KVecVals, 0, u.NVals(), 8)
		c.Instr(u.NVals())
	}
	var acc T
	var ok bool
	if u.rep == Dense {
		acc, ok = galois.OrderedReduce(ctx.exFor(u.n), u.n, ctx.blockFor(u.n),
			func(b, lo, hi int, gctx *galois.Ctx) T {
				part := m.Identity
				for i := lo; i < hi; i++ {
					if u.present.get(i) {
						part = m.Op(part, u.dense[i])
					}
				}
				return part
			}, m.Op)
	} else {
		// Sparse reps fold in storage order, which is a fixed property of
		// the vector — the same for every executor.
		vals := u.vals
		acc, ok = galois.OrderedReduce(ctx.exFor(len(vals)), len(vals), ctx.blockFor(len(vals)),
			func(b, lo, hi int, gctx *galois.Ctx) T {
				part := m.Identity
				for k := lo; k < hi; k++ {
					part = m.Op(part, vals[k])
				}
				return part
			}, m.Op)
	}
	if !ok {
		return m.Identity
	}
	return acc
}

// Gather implements w = u[indices]: for each explicit entry (k, p) of
// indices, w(k) = u(p) if u(p) is explicit. FastSV's grandparent step
// (gp = f[f]) is a Gather.
func Gather[T any](ctx *Context, w *Vector[T], u *Vector[T], indices *Vector[uint32], desc Desc) error {
	if indices.n != w.n {
		return errDim("Gather", indices.n, w.n)
	}
	u = unalias(w, u)
	if aliasAny(w, indices) {
		indices = indices.Dup()
	}
	sp := trace.Begin(trace.CatKernel, "grb.Gather")
	defer sp.End()
	sp.NNZIn = int64(indices.NVals())
	sp.Workers = int64(ctx.threads())
	kIdx, kVals := indices.Entries()
	e := blockedEntries(ctx, len(kIdx), len(kIdx), func(lo, hi int, gctx *galois.Ctx, out *entryList[T]) {
		for x := lo; x < hi; x++ {
			if val, ok := u.ExtractElement(int(kVals[x])); ok {
				out.idx = append(out.idx, int32(kIdx[x]))
				out.vals = append(out.vals, val)
			}
		}
	})
	if c := perfmodel.Get(); c != nil {
		c.LoadRange(indices.slot, perfmodel.KVecVals, 0, indices.NVals(), 4)
		for _, ix := range e.idx {
			c.Load(u.slot, perfmodel.KVecVals, int(ix), 8)
		}
		c.Instr(indices.NVals())
	}
	sp.NNZOut = int64(len(e.idx))
	sp.Bytes = entryBytes[T](len(e.idx))
	mergeIntoVector(w, e, nil, desc.Replace)
	return nil
}

// ScatterAccum implements w[indices(k)] = accum(w[indices(k)], u(k)) for the
// explicit entries of indices/u, the GrB_assign-with-index-vector idiom
// FastSV uses for stochastic hooking (f[f[i]] = min(f[f[i]], mngp[i])).
// Duplicate target positions are folded with accum, serially (the scatter is
// a tiny fraction of FastSV's work).
func ScatterAccum[T any](ctx *Context, w *Vector[T], accum BinaryOp[T], indices *Vector[uint32], u *Vector[T], desc Desc) error {
	if indices.n != u.n {
		return errDim("ScatterAccum", indices.n, u.n)
	}
	// The scatter interleaves reads of u/indices with writes to w, so
	// aliased inputs must be snapshotted or results become order-dependent.
	u = unalias(w, u)
	if aliasAny(w, indices) {
		indices = indices.Dup()
	}
	sp := trace.Begin(trace.CatKernel, "grb.ScatterAccum")
	defer sp.End()
	sp.NNZIn = int64(indices.NVals())
	c := perfmodel.Get()
	indices.ForEach(func(k int, target uint32) {
		val, ok := u.ExtractElement(k)
		if !ok {
			return
		}
		if old, exists := w.ExtractElement(int(target)); exists && accum != nil {
			w.SetElement(int(target), accum(old, val))
		} else {
			w.SetElement(int(target), val)
		}
		if c != nil {
			c.Load(u.slot, perfmodel.KVecVals, k, 8)
			c.Store(w.slot, perfmodel.KVecVals, int(target), 8)
			c.Instr(2)
		}
	})
	return nil
}
