package grb

import (
	"fmt"
	"sync/atomic"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// FoldMatrix folds b into a in place: a(i,j) = op(a(i,j), b(i,j)) for every
// explicit b(i,j), and a's other entries keep their value (GrB_eWiseAdd
// with a as both the output and the first operand). b's pattern must be a
// subset of a's, so a's pattern does not change and nothing is allocated:
// the matrix analogue of EWiseAdd's sparse fold into a Dense vector. Rows
// merge independently, each against its own row of a. a must not carry a
// CSC mirror, which the fold would leave stale. An entry of b outside a's
// pattern is reported as an error, with a left partly folded.
func FoldMatrix[T any](ctx *Context, op BinaryOp[T], a, b *Matrix[T]) error {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		return fmt.Errorf("grb: FoldMatrix dimensions %dx%d vs %dx%d", a.nrows, a.ncols, b.nrows, b.ncols)
	}
	if a.HasCSC() {
		return fmt.Errorf("grb: FoldMatrix into a matrix with a CSC mirror")
	}
	sp := trace.Begin(trace.CatKernel, "grb.FoldMatrix")
	defer sp.End()
	sp.NNZIn = b.NVals()
	sp.NNZOut = b.NVals() // the entries of a it rewrote
	sp.Workers = int64(ctx.threads())
	var outside atomic.Bool
	ctx.exFor(b.nrows+int(b.NVals())).ForRange(b.nrows, 0, func(lo, hi int, gctx *galois.Ctx) {
		var work int64
		for i := lo; i < hi; i++ {
			bCols, bVals := b.Row(i)
			if len(bCols) == 0 {
				continue
			}
			e, end := a.rowPtr[i], a.rowPtr[i+1]
			for x, j := range bCols {
				for e < end && a.colIdx[e] < j {
					e++
				}
				if e == end || a.colIdx[e] != j {
					outside.Store(true)
					break
				}
				a.vals[e] = op(a.vals[e], bVals[x])
				e++
			}
			work += e - a.rowPtr[i]
		}
		gctx.Work(work)
	})
	if c := perfmodel.Get(); c != nil {
		m := int(b.NVals())
		c.LoadRange(b.slot, perfmodel.KColIdx, 0, m, 4)
		c.LoadRange(b.slot, perfmodel.KVals, 0, m, 8)
		c.StoreRange(a.slot, perfmodel.KVals, 0, m, 8)
		c.Instr(m)
	}
	if outside.Load() {
		return fmt.Errorf("grb: FoldMatrix operand has an entry outside the output's pattern")
	}
	return nil
}

// PatternMinus returns m's entries at the positions p lacks: m<!p> under a
// complemented structural mask, with m's values. Each row is a merge of
// m's row against p's, so the cost is one pass over both patterns. ktruss
// takes the edges a round removed as S_old minus S_new's pattern.
func PatternMinus[T any](ctx *Context, m *Matrix[T], p *Pattern) (*Matrix[T], error) {
	if p.nrows != m.nrows || p.ncols != m.ncols {
		return nil, fmt.Errorf("grb: PatternMinus mask is %dx%d, want %dx%d", p.nrows, p.ncols, m.nrows, m.ncols)
	}
	sp := trace.Begin(trace.CatKernel, "grb.PatternMinus")
	defer sp.End()
	sp.NNZIn = m.NVals()
	sp.Workers = int64(ctx.threads())
	// Both passes merge row i of m against row i of p; the first counts
	// the entries p lacks, the second copies them.
	rowPtr := make([]int64, m.nrows+1)
	ctx.exFor(m.nrows+int(m.NVals())).ForRange(m.nrows, 0, func(lo, hi int, gctx *galois.Ctx) {
		for i := lo; i < hi; i++ {
			q, qEnd := p.rowPtr[i], p.rowPtr[i+1]
			var n int64
			for _, j := range m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]] {
				for q < qEnd && p.colIdx[q] < j {
					q++
				}
				if q == qEnd || p.colIdx[q] != j {
					n++
				}
			}
			rowPtr[i+1] = n
		}
		gctx.Work(m.rowPtr[hi] - m.rowPtr[lo])
	})
	for i := 0; i < m.nrows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	nnz := rowPtr[m.nrows]
	colIdx := make([]int32, nnz)
	vals := make([]T, nnz)
	ctx.exFor(m.nrows+int(m.NVals())).ForRange(m.nrows, 0, func(lo, hi int, gctx *galois.Ctx) {
		for i := lo; i < hi; i++ {
			q, qEnd := p.rowPtr[i], p.rowPtr[i+1]
			o := rowPtr[i]
			for e := m.rowPtr[i]; e < m.rowPtr[i+1]; e++ {
				j := m.colIdx[e]
				for q < qEnd && p.colIdx[q] < j {
					q++
				}
				if q == qEnd || p.colIdx[q] != j {
					colIdx[o] = j
					vals[o] = m.vals[e]
					o++
				}
			}
		}
		gctx.Work(m.rowPtr[hi] - m.rowPtr[lo])
	})
	out := NewMatrixFromCSR(m.nrows, m.ncols, rowPtr, colIdx, vals)
	sp.NNZOut = nnz
	sp.Bytes = nnz*(4+elemBytes[T]()) + int64(m.nrows+1)*8
	traceMatrixPass(m, out)
	return out, nil
}
