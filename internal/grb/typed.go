package grb

import (
	"math"
	"sync/atomic"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
)

// Monomorphic semiring kernels. Semiring.Mul and Monoid.Op are func values,
// so the generic per-edge loops make two indirect calls per edge. For the
// (semiring, element type) cells the registered apps run hot, a kernel picks
// a typed inner loop instead — once per call, never per edge — that reads
// concrete slices and does ⊕/⊗ in straight-line code:
//
//   - pullDot, plus_times[float64]: pagerank (every variant) and the
//     incremental pagerank warm and fallback paths;
//   - dotMxM, plus_pair[int64]: tc and ktruss, which only count
//     intersections.
//
// The loops are written out per cell rather than instantiated from a
// generic helper over zero-size op types: Go stencils one body per gcshape,
// and every struct{} op shares a shape, so such a helper would still call
// ⊕/⊗ through its dictionary.
//
// Invariants, held by typed_test.go against the generic loop run on the
// same semiring with the zero kind: results are bit-identical (the fold
// order is the generic loop's, and a float product is written
// float64(a*b) so the compiler may not fuse it into an FMA), and the
// gctx.Work amounts and perfmodel calls are the generic loop's, call for
// call.

// semiringKind identifies the constructor that built a Semiring. The zero
// kind is generic: the kernels only ever call Add.Op and Mul for it.
type semiringKind uint8

const (
	kindGeneric semiringKind = iota
	kindPlusTimes
	kindPlusPair
	numKinds
)

// typedCalls counts, per kind, the kernel calls that ran a typed loop. Only
// tests read it, to check that each app's semiring reaches its loop.
var typedCalls [numKinds]atomic.Int64

// negZero is the additive identity of IEEE addition: -0 + x == x bitwise
// for every x, so a float sum may start from it instead of from its first
// term, as the generic fold does.
var negZero = math.Copysign(0, -1)

// pullCost records the per-position prologue of the pull kernel with the
// performance model: the pointer, index and value reads of one row or
// column of n entries.
func pullCost(c *perfmodel.Collector, slot uint32, j, n int) {
	c.Load(slot, perfmodel.KRowPtr, j, 8)
	c.LoadRange(slot, perfmodel.KColIdx, 0, n, 4)
	c.LoadRange(slot, perfmodel.KVals, 0, n, 8)
	c.Instr(2 * n)
}

// typedPullDot returns the typed pull dot product for the semiring kind and
// element type, or nil when the cell has none. ud is densified.
func typedPullDot[T any](kind semiringKind, ud *Vector[T], A *Matrix[T], alongCols bool, c *perfmodel.Collector) func(int, *galois.Ctx) (T, bool) {
	var dot any
	if A, ok := any(A).(*Matrix[float64]); ok && kind == kindPlusTimes {
		dot = pullDotPlusTimes(any(ud).(*Vector[float64]), A, alongCols, c)
	}
	f, _ := dot.(func(int, *galois.Ctx) (T, bool))
	if f != nil {
		typedCalls[kind].Add(1)
	}
	return f
}

// pullSlices returns A's CSC arrays for a walk down columns (VxM) or its
// CSR arrays for a walk along rows (MxV).
func pullSlices[T any](A *Matrix[T], alongCols bool) ([]int64, []int32, []T) {
	if alongCols {
		return A.colPtr, A.rowIdx, A.cvals
	}
	return A.rowPtr, A.colIdx, A.vals
}

// pullDotPlusTimes is pullDot for plus_times[float64]. IEEE multiplication
// commutes, so VxM's u(i)*A(i,j) and MxV's A(i,j)*u(j) share one loop.
func pullDotPlusTimes(ud *Vector[float64], A *Matrix[float64], alongCols bool, c *perfmodel.Collector) func(int, *galois.Ctx) (float64, bool) {
	ptr, idx, vals := pullSlices(A, alongCols)
	x, present := ud.dense, ud.present
	return func(j int, gctx *galois.Ctx) (float64, bool) {
		lo, hi := ptr[j], ptr[j+1]
		rows, vs := idx[lo:hi], vals[lo:hi]
		gctx.Work(int64(len(rows)))
		if c != nil {
			pullCost(c, A.slot, j, len(rows))
		}
		acc, hit := negZero, false
		for e, i := range rows {
			if present[i>>6]&(1<<(uint(i)&63)) == 0 {
				continue
			}
			if c != nil {
				c.Load(ud.slot, perfmodel.KVecVals, int(i), 8)
			}
			acc += float64(x[i] * vs[e])
			hit = true
		}
		return acc, hit
	}
}

// dotFunc computes one SDOT SpGEMM entry, the dot product of a row of A
// (aCols, aVals) and a column of B (bRows, bVals), both sorted. It returns
// the value, whether any index matched, and how far the merge advanced in
// each operand (x, y), which the caller charges as work.
type dotFunc[T any] func(aCols []int32, aVals []T, bRows []int32, bVals []T) (acc T, hit bool, x, y int)

// genericDot is the dotFunc for any semiring: a sorted-merge intersection
// folding Mul(A(i,k), B(k,j)) under Add.Op.
func genericDot[T any](s Semiring[T]) dotFunc[T] {
	return func(aCols []int32, aVals []T, bRows []int32, bVals []T) (T, bool, int, int) {
		acc := s.Add.Identity
		hit := false
		x, y := 0, 0
		for x < len(aCols) && y < len(bRows) {
			switch {
			case aCols[x] < bRows[y]:
				x++
			case aCols[x] > bRows[y]:
				y++
			default:
				p := s.Mul(aVals[x], bVals[y])
				if !hit {
					acc, hit = p, true
				} else {
					acc = s.Add.Op(acc, p)
				}
				x++
				y++
			}
		}
		return acc, hit, x, y
	}
}

// typedDot returns the typed dot product for the semiring kind and element
// type, or nil when the cell has none.
func typedDot[T any](kind semiringKind) dotFunc[T] {
	var zero T
	var dot any
	if _, ok := any(zero).(int64); ok && kind == kindPlusPair {
		dot = dotFunc[int64](dotPlusPair)
	}
	f, _ := dot.(dotFunc[T])
	if f != nil {
		typedCalls[kind].Add(1)
	}
	return f
}

// dotPlusPair is the SDOT entry for plus_pair[int64]: pair ignores both
// values, so the entry is the number of matching indices. The merge
// advances x and y exactly as the generic loop does.
func dotPlusPair(aCols []int32, _ []int64, bRows []int32, _ []int64) (int64, bool, int, int) {
	var n int64
	x, y := 0, 0
	for x < len(aCols) && y < len(bRows) {
		switch {
		case aCols[x] < bRows[y]:
			x++
		case aCols[x] > bRows[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n, n > 0, x, y
}
