package grb

import (
	"fmt"
	"slices"
	"sort"

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
// A is diagonal (GaloisBLAS's specialization), the dot-product kernel when a
// mask bounds the output (Gustavson instead when maskedSaxpy says an
// operand is too sparse for the mask's merges to find anything), and SAXPY
// (Gustavson or hash by accumulator size) otherwise.
func MxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T]) (*Matrix[T], error) {
	if A.ncols != B.nrows {
		return nil, fmt.Errorf("grb: MxM inner dimensions %d != %d", A.ncols, B.nrows)
	}
	if mask != nil && (mask.nrows != A.nrows || mask.ncols != B.ncols) {
		return nil, fmt.Errorf("grb: MxM mask is %dx%d, want %dx%d", mask.nrows, mask.ncols, A.nrows, B.ncols)
	}
	kernel := ctx.Kernel
	diag := false
	if kernel == KernelAuto {
		switch {
		case A.IsDiagonal():
			diag = true
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
	op := "grb.MxM.gustavson"
	switch {
	case diag:
		op = "grb.MxM.diag"
	case kernel == KernelDot:
		op = "grb.MxM.dot"
	case kernel == KernelHash:
		op = "grb.MxM.hash"
	}
	sp := trace.Begin(trace.CatKernel, op)
	defer sp.End()
	sp.NNZIn = A.NVals() + B.NVals()
	sp.Workers = int64(ctx.threads())
	var C *Matrix[T]
	switch {
	case diag:
		C = diagMxM(ctx, s, A, B)
	case kernel == KernelDot:
		if mask == nil {
			return nil, fmt.Errorf("grb: MxM dot kernel requires a mask to bound the output")
		}
		C = dotMxM(ctx, mask, s, A, B)
	case kernel == KernelHash:
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

// rowResult holds one output row before assembly.
type rowResult[T any] struct {
	cols []int32
	vals []T
}

// assemble builds a CSR matrix from per-row results in two passes: a serial
// size pass (the prefix sum over row lengths that fixes every row's offset)
// and a parallel fill pass. Rows copy into disjoint [rowPtr[i], rowPtr[i+1])
// ranges, so the fill is race-free and its output independent of schedule.
func assemble[T any](ctx *Context, nrows, ncols int, rows []rowResult[T]) *Matrix[T] {
	rowPtr := make([]int64, nrows+1)
	var nnz int64
	for i := range rows {
		nnz += int64(len(rows[i].cols))
		rowPtr[i+1] = nnz
	}
	colIdx := make([]int32, nnz)
	vals := make([]T, nnz)
	galois.ForBlocks(ctx.Ex, nrows, ctx.blockFor(nrows), func(b, lo, hi int, gctx *galois.Ctx) {
		var work int64
		for i := lo; i < hi; i++ {
			off := rowPtr[i]
			copy(colIdx[off:rowPtr[i+1]], rows[i].cols)
			copy(vals[off:rowPtr[i+1]], rows[i].vals)
			work += rowPtr[i+1] - off
		}
		gctx.Work(work)
	})
	out := NewMatrixFromCSR(nrows, ncols, rowPtr, colIdx, vals)
	if c := perfmodel.Get(); c != nil {
		// Assembling the result is a full write pass plus a read of the
		// per-row staging buffers: the materialization cost itself.
		c.LoadRange(0, perfmodel.KAux, 0, int(nnz), 12)
		c.StoreRange(out.slot, perfmodel.KColIdx, 0, int(nnz), 4)
		c.StoreRange(out.slot, perfmodel.KVals, 0, int(nnz), 8)
		c.Instr(int(nnz))
	}
	return out
}

// saxpyMxM is SAXPY-based SpGEMM: for each entry A(i,k), fold
// mul(A(i,k), B(k,:)) into row i of C. Gustavson uses a dense per-worker
// accumulator of width B.ncols with generation marks; the hash variant uses
// a map (more memory-frugal, more compute — study section III-A).
func saxpyMxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T], useHash bool) *Matrix[T] {
	n := A.nrows
	rows := make([]rowResult[T], n)
	c := perfmodel.Get()
	type gacc struct {
		vals   []T
		mark   []int32
		gen    int32
		touch  []int32
		inMask bitmap
	}
	t := ctx.threads()
	accs := make([]*gacc, t)
	ctx.Ex.ForRange(n, 0, func(lo, hi int, gctx *galois.Ctx) {
		var a *gacc
		var hashAcc map[int32]T
		if useHash {
			hashAcc = make(map[int32]T)
		} else {
			a = accs[gctx.TID]
			if a == nil {
				a = &gacc{vals: make([]T, B.ncols), mark: make([]int32, B.ncols)}
				if mask != nil {
					a.inMask = newBitmap(B.ncols)
				}
				//lint:ignore sharedwrite worker-local scratch cache: slot TID is only ever touched by its own worker and never feeds the output (rows is row-indexed)
				accs[gctx.TID] = a
			}
		}
		var work int64
		for i := lo; i < hi; i++ {
			aCols, aVals := A.Row(i)
			if len(aCols) == 0 {
				continue
			}
			// Load the mask row for O(1) checks.
			var maskCols []int32
			if mask != nil {
				mlo, mhi := mask.rowPtr[i], mask.rowPtr[i+1]
				maskCols = mask.colIdx[mlo:mhi]
				if len(maskCols) == 0 {
					continue
				}
				if !useHash {
					for _, j := range maskCols {
						a.inMask.set(int(j))
					}
				}
			}
			allowed := func(j int32) bool {
				if mask == nil {
					return true
				}
				if !useHash {
					return a.inMask.get(int(j))
				}
				p := sort.Search(len(maskCols), func(k int) bool { return maskCols[k] >= j })
				return p < len(maskCols) && maskCols[p] == j
			}
			if c != nil {
				c.LoadRange(A.slot, perfmodel.KColIdx, int(A.rowPtr[i]), len(aCols), 4)
				c.LoadRange(A.slot, perfmodel.KVals, int(A.rowPtr[i]), len(aVals), 8)
			}
			if useHash {
				for e, k := range aCols {
					av := aVals[e]
					bCols, bVals := B.Row(int(k))
					work += int64(len(bCols))
					if c != nil {
						c.LoadRange(B.slot, perfmodel.KColIdx, int(B.rowPtr[k]), len(bCols), 4)
						c.LoadRange(B.slot, perfmodel.KVals, int(B.rowPtr[k]), len(bVals), 8)
						c.Instr(3 * len(bCols)) // hash probe + combine
					}
					for e2, j := range bCols {
						if !allowed(j) {
							continue
						}
						p := s.Mul(av, bVals[e2])
						if old, ok := hashAcc[j]; ok {
							hashAcc[j] = s.Add.Op(old, p)
						} else {
							hashAcc[j] = p
						}
					}
				}
				if len(hashAcc) > 0 {
					cols := make([]int32, 0, len(hashAcc))
					for j := range hashAcc {
						cols = append(cols, j)
					}
					slices.Sort(cols)
					vals := make([]T, len(cols))
					for x, j := range cols {
						vals[x] = hashAcc[j]
						delete(hashAcc, j)
					}
					rows[i] = rowResult[T]{cols: cols, vals: vals}
					if c != nil {
						c.StoreRange(0, perfmodel.KAux, 0, len(cols), 12)
					}
				}
			} else {
				a.gen++
				a.touch = a.touch[:0]
				for e, k := range aCols {
					av := aVals[e]
					bCols, bVals := B.Row(int(k))
					work += int64(len(bCols))
					if c != nil {
						c.LoadRange(B.slot, perfmodel.KColIdx, int(B.rowPtr[k]), len(bCols), 4)
						c.LoadRange(B.slot, perfmodel.KVals, int(B.rowPtr[k]), len(bVals), 8)
						c.Instr(2 * len(bCols))
					}
					for e2, j := range bCols {
						if !allowed(j) {
							continue
						}
						p := s.Mul(av, bVals[e2])
						if a.mark[j] != a.gen {
							a.mark[j] = a.gen
							a.vals[j] = p
							a.touch = append(a.touch, j)
						} else {
							a.vals[j] = s.Add.Op(a.vals[j], p)
						}
						if c != nil {
							c.Store(0, perfmodel.KAux, int(j), 8)
						}
					}
				}
				if len(a.touch) > 0 {
					cols := append([]int32(nil), a.touch...)
					slices.Sort(cols)
					vals := make([]T, len(cols))
					for x, j := range cols {
						vals[x] = a.vals[j]
					}
					rows[i] = rowResult[T]{cols: cols, vals: vals}
					if c != nil {
						c.StoreRange(0, perfmodel.KAux, 0, len(cols), 12)
					}
				}
			}
			if mask != nil && !useHash {
				for _, j := range maskCols {
					a.inMask.clear(int(j))
				}
			}
		}
		gctx.Work(work)
	})
	return assemble(ctx, A.nrows, B.ncols, rows)
}

// dotMxM is SDOT SpGEMM: C(i,j) = A(i,:) · B(:,j) computed only for the
// mask's entries, using B's CSC mirror. Rows and columns are sorted, so each
// dot product is a sorted-merge intersection. No intermediate storage is
// allocated beyond the output (study section III-A). Each entry's dot
// product is a dotFunc: the semiring's typed loop (typed.go) or the
// generic one.
func dotMxM[T any](ctx *Context, mask *Pattern, s Semiring[T], A, B *Matrix[T]) *Matrix[T] {
	B.EnsureCSC()
	dot := typedDot[T](s.kind)
	if dot == nil {
		dot = genericDot(s)
	}
	rows := make([]rowResult[T], A.nrows)
	c := perfmodel.Get()
	ctx.Ex.ForRange(A.nrows, 0, func(lo, hi int, gctx *galois.Ctx) {
		var work int64
		for i := lo; i < hi; i++ {
			mlo, mhi := mask.rowPtr[i], mask.rowPtr[i+1]
			if mlo == mhi {
				continue
			}
			aCols, aVals := A.Row(i)
			if len(aCols) == 0 {
				continue
			}
			var outCols []int32
			var outVals []T
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
					outCols = append(outCols, j)
					outVals = append(outVals, acc)
				}
			}
			if len(outCols) > 0 {
				rows[i] = rowResult[T]{cols: outCols, vals: outVals}
				if c != nil {
					c.StoreRange(0, perfmodel.KAux, 0, len(outCols), 12)
				}
			}
		}
		gctx.Work(work)
	})
	return assemble(ctx, A.nrows, B.ncols, rows)
}

// diagMxM scales row i of B by the diagonal entry A(i,i): the specialized
// kernel GaloisBLAS adds for diagonal-times-sparse products.
func diagMxM[T any](ctx *Context, s Semiring[T], A, B *Matrix[T]) *Matrix[T] {
	rows := make([]rowResult[T], A.nrows)
	c := perfmodel.Get()
	ctx.Ex.ForRange(A.nrows, 0, func(lo, hi int, gctx *galois.Ctx) {
		var work int64
		for i := lo; i < hi; i++ {
			d, ok := A.ExtractElement(i, i)
			if !ok {
				continue
			}
			bCols, bVals := B.Row(i)
			work += int64(len(bCols))
			if c != nil {
				c.LoadRange(B.slot, perfmodel.KVals, int(B.rowPtr[i]), len(bVals), 8)
				c.Instr(len(bCols))
			}
			cols := append([]int32(nil), bCols...)
			vals := make([]T, len(bVals))
			for e, bv := range bVals {
				vals[e] = s.Mul(d, bv)
			}
			rows[i] = rowResult[T]{cols: cols, vals: vals}
		}
		gctx.Work(work)
	})
	return assemble(ctx, A.nrows, B.ncols, rows)
}
