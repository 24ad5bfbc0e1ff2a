package grb

import (
	"fmt"
	"slices"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// Pattern is the structural mask of a matrix: which (i, j) positions exist.
// MxM's masked form only computes output entries the pattern allows, the
// idiom triangle counting and ktruss use (C<L> = L*U').
type Pattern struct {
	nrows, ncols int
	rowPtr       []int64
	colIdx       []int32
}

// Pattern returns the structural pattern of m, sharing its index arrays.
func (m *Matrix[T]) Pattern() *Pattern {
	return &Pattern{nrows: m.nrows, ncols: m.ncols, rowPtr: m.rowPtr, colIdx: m.colIdx}
}

// MxM computes C<mask> = A * B under the semiring (GrB_mxm). A nil mask
// computes the full product. The kernel is chosen by ctx.Kernel, with
// KernelAuto following SuiteSparse's heuristics: the diagonal fast path when
// A is diagonal and there is no mask (GaloisBLAS's specialization), the
// dot-product kernel when a mask bounds the output (Gustavson instead when
// maskedSaxpy says an operand is too sparse for the mask's merges to find
// anything), and SAXPY (Gustavson or hash by accumulator size) otherwise.
func MxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T]) (*Matrix[T], error) {
	if A.ncols != B.nrows {
		return nil, fmt.Errorf("grb: MxM inner dimensions %d != %d", A.ncols, B.nrows)
	}
	if mask != nil && (mask.nrows != A.nrows || mask.ncols != B.ncols) {
		return nil, fmt.Errorf("grb: MxM mask is %dx%d, want %dx%d", mask.nrows, mask.ncols, A.nrows, B.ncols)
	}
	// A kernel left at KernelAuto after the choice is the diagonal one,
	// which ignores the mask: it takes an empty A under any mask.
	kernel := ctx.Kernel
	if kernel == KernelAuto {
		switch {
		case (mask == nil || A.NVals() == 0) && A.IsDiagonal():
		case mask != nil && maskedSaxpy(mask, A, B):
			kernel = KernelGustavson
		case mask != nil:
			kernel = KernelDot
		case B.ncols <= 1<<22:
			kernel = KernelGustavson
		default:
			kernel = KernelHash
		}
	}
	sp := trace.Begin(trace.CatKernel, [...]string{KernelAuto: "grb.MxM.diag", KernelGustavson: "grb.MxM.gustavson",
		KernelHash: "grb.MxM.hash", KernelDot: "grb.MxM.dot"}[kernel])
	defer sp.End()
	sp.NNZIn = A.NVals() + B.NVals()
	sp.Workers = int64(ctx.threads())
	var C *Matrix[T]
	switch kernel {
	case KernelAuto:
		C = diagMxM(ctx, s, A, B)
	case KernelDot:
		if mask == nil {
			return nil, fmt.Errorf("grb: MxM dot kernel requires a mask to bound the output")
		}
		C = dotMxM(ctx, mask, s, A, B)
	case KernelHash:
		C = saxpyMxM(ctx, mask, s, A, B, true)
	default:
		C = saxpyMxM(ctx, mask, s, A, B, false)
	}
	sp.NNZOut = C.NVals()
	// The assembled CSR result: col indices + values + row pointers.
	sp.Bytes = C.NVals()*(4+elemBytes[T]()) + int64(C.nrows+1)*8
	return C, nil
}

// MxMFlops returns the multiply count of C<mask> = A * B computed by
// SAXPY: for every row i the mask admits (every row for a nil mask), the
// sum over A(i,k) of B's row-k degree. It reads row pointers only — O(nnz(A))
// — so a caller can price a product before running it (SuiteSparse's
// GB_AxB_saxpy3_flopcount).
func MxMFlops[T any](mask *Pattern, A, B *Matrix[T]) int64 {
	if mask != nil && mask.rowPtr[mask.nrows] == 0 {
		return 0 // an empty mask admits no row
	}
	var flops int64
	for i := 0; i < A.nrows; i++ {
		if mask != nil && mask.rowPtr[i] == mask.rowPtr[i+1] {
			continue
		}
		for _, k := range A.colIdx[A.rowPtr[i]:A.rowPtr[i+1]] {
			flops += B.rowPtr[k+1] - B.rowPtr[k]
		}
	}
	return flops
}

// maskedSaxpy decides KernelAuto's kernel for a masked product from sizes
// in its inputs. The dot kernel runs one merge per mask entry whose row of
// A is non-empty, A's row against a column of B; Gustavson walks, for each
// A(i,k), row k of B. While both operands hold at least half as many
// entries as the mask — tc's L*U', any S*S under S — the merges have
// material on both sides and the dot kernel, which needs no accumulator,
// is kept. When one operand is sparser (ktruss's delta products D*S and
// S*D), most merges find nothing, and Gustavson is chosen if its flops
// undercut the merges' estimated length: A's row plus B's mean column
// degree, per visited mask entry. Gustavson reads B by rows, so it needs
// no CSC mirror either.
func maskedSaxpy[T any](mask *Pattern, A, B *Matrix[T]) bool {
	m := mask.rowPtr[mask.nrows]
	if 2*min(A.NVals(), B.NVals()) > m || B.ncols == 0 {
		return false
	}
	colDeg := B.NVals() / int64(B.ncols)
	var merges int64
	for i := 0; i < A.nrows; i++ {
		if a := A.rowPtr[i+1] - A.rowPtr[i]; a > 0 {
			merges += (mask.rowPtr[i+1] - mask.rowPtr[i]) * (a + colDeg)
		}
	}
	return MxMFlops(mask, A, B) < merges
}

// blockedRows computes C<mask> = A * B over the deterministic blocking of
// A's rows: row appends row i's entries, in ascending column order, to the
// entry buffers (a.idx, a.out) of its worker's push accumulator, whose
// dense half spans width positions (0 when row folds nothing into it).
// Each block stages its rows back to back there and writes each row's
// length to rowPtr[i+1]; one prefix sum fixes the row offsets, and each
// block copies its rows into its range once. Rows depend only on their
// inputs, so C is independent of schedule and blocking. The accumulators
// are the run's; a block that may not fit (rowBound) in what is left of
// the buffers starts new ones of at least twice the size.
func blockedRows[T any](ctx *Context, mask *Pattern, A, B *Matrix[T], width int, row func(i int, a pushAcc[T], gctx *galois.Ctx)) *Matrix[T] {
	nrows, c := A.nrows, perfmodel.Get()
	ws := ctx.acquire()
	defer ctx.release(ws)
	accs := ws.pushAccs(ctx.threads())
	rowPtr := make([]int64, nrows+1)
	block := ctx.blockFor(nrows)
	parts := make([]entryList[T], galois.NumBlocks(nrows, block))
	galois.ForBlocks(ctx.Ex, nrows, block, func(b, lo, hi int, gctx *galois.Ctx) {
		if accs[gctx.TID] == nil {
			//lint:ignore sharedwrite worker-local scratch cache: slot TID is only ever touched by its own worker and never feeds the output (parts is block-indexed)
			accs[gctx.TID] = new(accMarks)
		}
		a := accFor[T](accs[gctx.TID], width)
		a.out = a.out[:len(a.idx)]
		if m := rowBound(mask, A, B, lo, hi); cap(a.idx)-len(a.idx) < m {
			size := max(2*cap(a.idx), m)
			a.idx, a.out = make([]int32, 0, size), make([]T, 0, size)
		}
		start := len(a.idx)
		for i := lo; i < hi; i++ {
			k := len(a.idx)
			row(i, a, gctx)
			rowPtr[i+1] = int64(len(a.idx) - k)
		}
		parts[b] = entryList[T]{idx: a.idx[start:], vals: a.out[start:]}
		if c != nil {
			c.StoreRange(0, perfmodel.KAux, start, len(parts[b].idx), 12)
		}
	})
	for i := 0; i < nrows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nnz := rowPtr[nrows]
	colIdx := make([]int32, nnz)
	vals := make([]T, nnz)
	if nnz > 0 {
		galois.ForBlocks(ctx.Ex, nrows, block, func(b, lo, hi int, gctx *galois.Ctx) {
			copy(colIdx[rowPtr[lo]:rowPtr[hi]], parts[b].idx)
			copy(vals[rowPtr[lo]:rowPtr[hi]], parts[b].vals)
			gctx.Work(rowPtr[hi] - rowPtr[lo])
		})
	}
	out := NewMatrixFromCSR(nrows, B.ncols, rowPtr, colIdx, vals)
	if c != nil {
		// The copy-out reads the staged rows and writes the result once.
		c.LoadRange(0, perfmodel.KAux, 0, int(nnz), 12)
		c.StoreRange(out.slot, perfmodel.KColIdx, 0, int(nnz), 4)
		c.StoreRange(out.slot, perfmodel.KVals, 0, int(nnz), 8)
		c.Instr(int(nnz))
	}
	return out
}

// rowBound bounds the entries of rows [lo, hi) of C<mask> = A * B: the
// sum over the rows of the smaller of the row's multiply count and its
// width in the mask (B.ncols for a nil mask). A row of C has no more
// entries than either.
func rowBound[T any](mask *Pattern, A, B *Matrix[T], lo, hi int) int {
	var m int64
	for i := lo; i < hi; i++ {
		width := int64(B.ncols)
		if mask != nil {
			width = mask.rowPtr[i+1] - mask.rowPtr[i]
		}
		var flops int64
		for _, k := range A.colIdx[A.rowPtr[i]:A.rowPtr[i+1]] {
			if flops += B.rowPtr[k+1] - B.rowPtr[k]; flops >= width {
				break
			}
		}
		m += min(flops, width)
	}
	return int(m)
}

// saxpyMxM is SAXPY-based SpGEMM: for each entry A(i,k), fold
// mul(A(i,k), B(k,:)) into row i of C. Gustavson folds into the worker's
// dense push accumulator of width B.ncols; the hash variant uses a
// per-worker map (more memory-frugal, more compute — study section
// III-A). Under a mask, either spreads the mask row into a bitmap.
func saxpyMxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T], useHash bool) *Matrix[T] {
	c := perfmodel.Get()
	type scratch struct {
		inMask bitmap
		hash   map[int32]T
	}
	scr := make([]*scratch, ctx.threads())
	width := B.ncols
	if useHash {
		width = 0
	}
	return blockedRows(ctx, mask, A, B, width, func(i int, a pushAcc[T], gctx *galois.Ctx) {
		aCols, aVals := A.Row(i)
		var maskCols []int32
		if mask != nil {
			maskCols = mask.colIdx[mask.rowPtr[i]:mask.rowPtr[i+1]]
		}
		if len(aCols) == 0 || mask != nil && len(maskCols) == 0 {
			return
		}
		x := scr[gctx.TID]
		if x == nil {
			x = new(scratch)
			if useHash {
				x.hash = make(map[int32]T)
			}
			if mask != nil {
				x.inMask = newBitmap(B.ncols)
			}
			scr[gctx.TID] = x
		}
		for _, j := range maskCols {
			x.inMask.set(int(j))
		}
		if c != nil {
			c.LoadRange(A.slot, perfmodel.KColIdx, int(A.rowPtr[i]), len(aCols), 4)
			c.LoadRange(A.slot, perfmodel.KVals, int(A.rowPtr[i]), len(aVals), 8)
		}
		var work int64
		for e, k := range aCols {
			av := aVals[e]
			bCols, bVals := B.Row(int(k))
			work += int64(len(bCols))
			if c != nil {
				c.LoadRange(B.slot, perfmodel.KColIdx, int(B.rowPtr[k]), len(bCols), 4)
				c.LoadRange(B.slot, perfmodel.KVals, int(B.rowPtr[k]), len(bVals), 8)
				if useHash {
					c.Instr(3 * len(bCols)) // hash probe + combine
				} else {
					c.Instr(2 * len(bCols))
				}
			}
			for e2, j := range bCols {
				if mask != nil && !x.inMask.get(int(j)) {
					continue
				}
				p := s.Mul(av, bVals[e2])
				if !useHash {
					a.add(j, p, s.Add.Op)
					if c != nil {
						c.Store(0, perfmodel.KAux, int(j), 8)
					}
				} else if old, ok := x.hash[j]; ok {
					x.hash[j] = s.Add.Op(old, p)
				} else {
					x.hash[j] = p
				}
			}
		}
		if useHash {
			k0 := len(a.idx)
			cols := a.idx
			for j := range x.hash {
				cols = append(cols, j)
			}
			slices.Sort(cols[k0:])
			a.idx = cols
			for _, j := range cols[k0:] {
				a.out = append(a.out, x.hash[j])
				delete(x.hash, j)
			}
		} else {
			a.take()
		}
		for _, j := range maskCols {
			x.inMask.clear(int(j))
		}
		gctx.Work(work)
	})
}

// dotMxM is SDOT SpGEMM: C(i,j) = A(i,:) · B(:,j) computed only for the
// mask's entries, using B's CSC mirror. Rows and columns are sorted, so each
// dot product is a sorted-merge intersection and needs no accumulator
// (study section III-A). Each entry's dot product is a dotFunc: the
// semiring's typed loop (typed.go) or the generic one.
func dotMxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T]) *Matrix[T] {
	B.EnsureCSC()
	dot := typedDot[T](s.kind)
	if dot == nil {
		dot = genericDot(s)
	}
	c := perfmodel.Get()
	return blockedRows(ctx, mask, A, B, 0, func(i int, a pushAcc[T], gctx *galois.Ctx) {
		mlo, mhi := mask.rowPtr[i], mask.rowPtr[i+1]
		aCols, aVals := A.Row(i)
		if mlo == mhi || len(aCols) == 0 {
			return
		}
		var work int64
		for e := mlo; e < mhi; e++ {
			j := mask.colIdx[e]
			bRows, bVals := B.Col(int(j))
			acc, hit, x, y := dot(aCols, aVals, bRows, bVals)
			work += int64(x + y)
			if c != nil {
				// The dot product has no value-based bound, so it walks
				// until one operand is exhausted: every touched element
				// costs a memory access but only one compare.
				c.LoadRange(A.slot, perfmodel.KColIdx, int(A.rowPtr[i]), x, 4)
				c.LoadRange(B.slot, perfmodel.KColIdx, int(B.colPtr[j]), y, 4)
				c.Instr(2 * (x + y))
			}
			if hit {
				a.idx = append(a.idx, j)
				a.out = append(a.out, acc)
			}
		}
		gctx.Work(work)
	})
}

// diagMxM scales row i of B by the diagonal entry A(i,i): the specialized
// kernel GaloisBLAS adds for diagonal-times-sparse products. Row i of C is
// row i of B where A has a diagonal entry and empty elsewhere, so C's row
// pointers follow from the two operands' row pointers and every block
// writes its rows straight into C.
func diagMxM[T any](ctx *Context, s Semiring[T], A, B *Matrix[T]) *Matrix[T] {
	n := A.nrows
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i]
		if A.rowPtr[i+1] > A.rowPtr[i] {
			rowPtr[i+1] += B.rowPtr[i+1] - B.rowPtr[i]
		}
	}
	nnz := rowPtr[n]
	colIdx := make([]int32, nnz)
	vals := make([]T, nnz)
	c := perfmodel.Get()
	galois.ForBlocks(ctx.Ex, n, ctx.blockFor(n), func(_, lo, hi int, gctx *galois.Ctx) {
		for i := lo; i < hi; i++ {
			off, end := rowPtr[i], rowPtr[i+1]
			if off == end {
				continue
			}
			d := A.vals[A.rowPtr[i]]
			b := B.rowPtr[i]
			copy(colIdx[off:end], B.colIdx[b:b+end-off])
			for e, bv := range B.vals[b : b+end-off] {
				vals[off+int64(e)] = s.Mul(d, bv)
			}
			if c != nil {
				c.LoadRange(B.slot, perfmodel.KVals, int(b), int(end-off), 8)
				c.Instr(int(end - off))
			}
		}
		gctx.Work(rowPtr[hi] - rowPtr[lo])
	})
	out := NewMatrixFromCSR(n, B.ncols, rowPtr, colIdx, vals)
	if c != nil {
		c.StoreRange(out.slot, perfmodel.KColIdx, 0, int(nnz), 4)
		c.StoreRange(out.slot, perfmodel.KVals, 0, int(nnz), 8)
		c.Instr(int(nnz))
	}
	return out
}
