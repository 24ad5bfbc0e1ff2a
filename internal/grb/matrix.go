package grb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
)

// traceMatrixPass records a full read (and optionally write) pass over a
// matrix's entries against the performance model: the cost of materializing
// or consuming an intermediate, which the study's Tables IV/V attribute much
// of the matrix API's overhead to.
func traceMatrixPass[T any](src *Matrix[T], written *Matrix[T]) {
	c := perfmodel.Get()
	if c == nil {
		return
	}
	n := int(src.NVals())
	c.LoadRange(src.slot, perfmodel.KColIdx, 0, n, 4)
	c.LoadRange(src.slot, perfmodel.KVals, 0, n, 8)
	c.Instr(n)
	if written != nil {
		m := int(written.NVals())
		c.StoreRange(written.slot, perfmodel.KColIdx, 0, m, 4)
		c.StoreRange(written.slot, perfmodel.KVals, 0, m, 8)
	}
}

// Matrix is a sparse matrix in CSR form with an optional CSC mirror
// (SuiteSparse keeps both formats too; section III-A of the study). The CSC
// mirror is built lazily by EnsureCSC and used by pull-style and dot-product
// kernels.
//
// Invariants: len(rowPtr) == nrows+1; rowPtr non-decreasing starting at 0;
// len(colIdx) == len(vals) == rowPtr[nrows]; column indices within each row
// are sorted ascending and unique.
type Matrix[T any] struct {
	nrows, ncols int
	rowPtr       []int64
	colIdx       []int32
	vals         []T

	// CSC mirror (nil until EnsureCSC). cscOnce guards the build, so runs
	// sharing a prepared matrix may all call EnsureCSC; hasCSC publishes a
	// finished build to callers that only ask HasCSC.
	cscOnce sync.Once
	hasCSC  atomic.Bool
	colPtr  []int64
	rowIdx  []int32
	cvals   []T

	slot uint32
}

// NewMatrixFromCSR wraps pre-built CSR arrays (taking ownership). Rows must
// be sorted by column and free of duplicates; Check enforces this in tests.
func NewMatrixFromCSR[T any](nrows, ncols int, rowPtr []int64, colIdx []int32, vals []T) *Matrix[T] {
	return &Matrix[T]{
		nrows: nrows, ncols: ncols,
		rowPtr: rowPtr, colIdx: colIdx, vals: vals,
		slot: perfmodel.NewSlot(),
	}
}

// BuildMatrix constructs a matrix from coordinate-form tuples, combining
// duplicates with dup (the analog of GrB_Matrix_build).
func BuildMatrix[T any](nrows, ncols int, rows, cols []int, vals []T, dup BinaryOp[T]) (*Matrix[T], error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("grb: BuildMatrix tuple slices disagree: %d/%d/%d", len(rows), len(cols), len(vals))
	}
	for k := range rows {
		if rows[k] < 0 || rows[k] >= nrows || cols[k] < 0 || cols[k] >= ncols {
			return nil, fmt.Errorf("grb: BuildMatrix tuple (%d,%d) out of %dx%d", rows[k], cols[k], nrows, ncols)
		}
	}
	ord := make([]int, len(rows))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		ia, ib := ord[a], ord[b]
		if rows[ia] != rows[ib] {
			return rows[ia] < rows[ib]
		}
		return cols[ia] < cols[ib]
	})
	rowPtr := make([]int64, nrows+1)
	colIdx := make([]int32, 0, len(rows))
	outVals := make([]T, 0, len(rows))
	for k := 0; k < len(ord); {
		i := ord[k]
		r, c, v := rows[i], cols[i], vals[i]
		j := k + 1
		for j < len(ord) && rows[ord[j]] == r && cols[ord[j]] == c {
			if dup != nil {
				v = dup(v, vals[ord[j]])
			} else {
				v = vals[ord[j]]
			}
			j++
		}
		colIdx = append(colIdx, int32(c))
		outVals = append(outVals, v)
		rowPtr[r+1]++
		k = j
	}
	for r := 0; r < nrows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return NewMatrixFromCSR(nrows, ncols, rowPtr, colIdx, outVals), nil
}

// NRows returns the row dimension.
func (m *Matrix[T]) NRows() int { return m.nrows }

// NCols returns the column dimension.
func (m *Matrix[T]) NCols() int { return m.ncols }

// NVals returns the number of explicit entries.
func (m *Matrix[T]) NVals() int64 { return m.rowPtr[m.nrows] }

// Slot identifies the matrix in the performance model's address space.
func (m *Matrix[T]) Slot() uint32 { return m.slot }

// Row returns the column indices and values of row i (aliases storage).
func (m *Matrix[T]) Row(i int) ([]int32, []T) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RowDegree returns the number of explicit entries in row i.
func (m *Matrix[T]) RowDegree(i int) int64 { return m.rowPtr[i+1] - m.rowPtr[i] }

// SizeBytes returns the bytes of the matrix's arrays: the CSR and, once it
// is built, the CSC mirror. It may run while another goroutine builds the
// mirror.
func (m *Matrix[T]) SizeBytes() int64 {
	entry := 4 + elemBytes[T]()
	b := int64(len(m.rowPtr))*8 + int64(len(m.colIdx))*entry
	if m.HasCSC() {
		b += int64(len(m.colPtr))*8 + int64(len(m.rowIdx))*entry
	}
	return b
}

// HasCSC reports whether the CSC mirror is built.
func (m *Matrix[T]) HasCSC() bool { return m.hasCSC.Load() }

// Col returns the row indices and values of column j (CSC mirror must have
// been built with EnsureCSC).
func (m *Matrix[T]) Col(j int) ([]int32, []T) {
	lo, hi := m.colPtr[j], m.colPtr[j+1]
	return m.rowIdx[lo:hi], m.cvals[lo:hi]
}

// EnsureCSC builds the CSC mirror if absent. It is safe to call from
// concurrent runs: the first caller builds (and records the pass with the
// performance model), the others wait for it.
func (m *Matrix[T]) EnsureCSC() { m.cscOnce.Do(m.buildCSC) }

func (m *Matrix[T]) buildCSC() {
	nnz := m.NVals()
	colPtr := make([]int64, m.ncols+1)
	for _, c := range m.colIdx {
		colPtr[c+1]++
	}
	for j := 0; j < m.ncols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int32, nnz)
	cvals := make([]T, nnz)
	cursor := make([]int64, m.ncols)
	copy(cursor, colPtr[:m.ncols])
	for i := 0; i < m.nrows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for e := lo; e < hi; e++ {
			c := m.colIdx[e]
			p := cursor[c]
			cursor[c] = p + 1
			rowIdx[p] = int32(i)
			cvals[p] = m.vals[e]
		}
	}
	m.colPtr, m.rowIdx, m.cvals = colPtr, rowIdx, cvals
	m.hasCSC.Store(true)
	traceMatrixPass(m, m)
}

// Transpose returns a new matrix that is the transpose of m (the CSC of m
// reinterpreted as CSR).
func (m *Matrix[T]) Transpose() *Matrix[T] {
	m.EnsureCSC()
	return NewMatrixFromCSR(m.ncols, m.nrows,
		append([]int64(nil), m.colPtr...),
		append([]int32(nil), m.rowIdx...),
		append([]T(nil), m.cvals...))
}

// Dup returns a deep copy of the CSR part.
func (m *Matrix[T]) Dup() *Matrix[T] {
	return NewMatrixFromCSR(m.nrows, m.ncols,
		append([]int64(nil), m.rowPtr...),
		append([]int32(nil), m.colIdx...),
		append([]T(nil), m.vals...))
}

// ExtractElement returns entry (i, j) and whether it is explicit.
func (m *Matrix[T]) ExtractElement(i, j int) (T, bool) {
	var zero T
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		return zero, false
	}
	cols, vals := m.Row(i)
	p := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if p < len(cols) && cols[p] == int32(j) {
		return vals[p], true
	}
	return zero, false
}

// IsDiagonal reports whether every entry lies on the diagonal (and the
// matrix is square). GaloisBLAS detects this to run its specialized
// diagonal-times-sparse kernel (study section III-B).
func (m *Matrix[T]) IsDiagonal() bool {
	if m.nrows != m.ncols {
		return false
	}
	for i := 0; i < m.nrows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		if hi-lo > 1 {
			return false
		}
		if hi > lo && m.colIdx[lo] != int32(i) {
			return false
		}
	}
	return true
}

// Diag builds a diagonal matrix from the explicit entries of v, read in
// place: its sorted entries (sortedEntries) become the matrix's arrays.
func Diag[T any](v *Vector[T]) *Matrix[T] {
	n := v.Size()
	colIdx, vals := sortedEntries(v)
	if v.rep == Sorted {
		colIdx, vals = slices.Clone(colIdx), slices.Clone(vals)
	}
	rowPtr := make([]int64, n+1)
	for _, i := range colIdx {
		rowPtr[i+1] = 1
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return NewMatrixFromCSR(n, n, rowPtr, colIdx, vals)
}

// Tril returns the strictly-lower-triangular part of m (entries with j < i),
// the "L" matrix of SandiaDot triangle counting.
func (m *Matrix[T]) Tril() *Matrix[T] {
	return m.selectIndexed(func(_ T, i, j int) bool { return j < i })
}

// Triu returns the strictly-upper-triangular part of m (entries with j > i).
func (m *Matrix[T]) Triu() *Matrix[T] {
	return m.selectIndexed(func(_ T, i, j int) bool { return j > i })
}

// SelectMatrix returns a new matrix keeping entries where pred holds, the
// analog of GrB_select. ktruss uses it to drop low-support edges.
func SelectMatrix[T any](m *Matrix[T], pred IndexedPredicate[T]) *Matrix[T] {
	return m.selectIndexed(pred)
}

func (m *Matrix[T]) selectIndexed(pred IndexedPredicate[T]) *Matrix[T] {
	rowPtr := make([]int64, m.nrows+1)
	colIdx := make([]int32, 0, m.NVals())
	vals := make([]T, 0, m.NVals())
	for i := 0; i < m.nrows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for e := lo; e < hi; e++ {
			j := int(m.colIdx[e])
			if pred(m.vals[e], i, j) {
				colIdx = append(colIdx, m.colIdx[e])
				vals = append(vals, m.vals[e])
			}
		}
		rowPtr[i+1] = int64(len(colIdx))
	}
	out := NewMatrixFromCSR(m.nrows, m.ncols, rowPtr, colIdx, vals)
	traceMatrixPass(m, out)
	return out
}

// ReduceRows folds each row's explicit values under the monoid, returning a
// dense vector with one explicit entry per non-empty row (GrB_reduce to
// vector). PageRank uses it to compute out-degrees. Rows fold independently
// (each inside one fixed block), so the parallel result is trivially
// schedule-independent; the per-block entry lists commit serially because
// the dense output's presence bitmap is not safe for concurrent writes.
func ReduceRows[T any](ctx *Context, m Monoid[T], a *Matrix[T]) *Vector[T] {
	out := NewVector[T](a.nrows, Dense)
	e := blockedEntries(ctx, a.nrows, a.nrows+int(a.NVals()), func(lo, hi int, gctx *galois.Ctx, part *entryList[T]) {
		var work int64
		for i := lo; i < hi; i++ {
			rlo, rhi := a.rowPtr[i], a.rowPtr[i+1]
			if rlo == rhi {
				continue
			}
			acc := m.Identity
			for k := rlo; k < rhi; k++ {
				acc = m.Op(acc, a.vals[k])
			}
			work += rhi - rlo
			part.idx = append(part.idx, int32(i))
			part.vals = append(part.vals, acc)
		}
		gctx.Work(work)
	})
	for k, ix := range e.idx {
		out.SetElement(int(ix), e.vals[k])
	}
	return out
}

// ReduceMatrix folds every explicit value under the monoid, blockwise with
// an ordered merge so float folds are bit-identical at any worker count.
func ReduceMatrix[T any](ctx *Context, m Monoid[T], a *Matrix[T]) T {
	traceMatrixPass(a, nil)
	vals := a.vals
	acc, ok := galois.OrderedReduce(ctx.exFor(len(vals)), len(vals), ctx.blockFor(len(vals)),
		func(b, lo, hi int, gctx *galois.Ctx) T {
			part := m.Identity
			for k := lo; k < hi; k++ {
				part = m.Op(part, vals[k])
			}
			return part
		}, m.Op)
	if !ok {
		return m.Identity
	}
	return acc
}

// Check verifies the matrix invariants; tests call it after every kernel.
func (m *Matrix[T]) Check() error {
	if len(m.rowPtr) != m.nrows+1 {
		return fmt.Errorf("grb: rowPtr length %d, want %d", len(m.rowPtr), m.nrows+1)
	}
	if m.rowPtr[0] != 0 {
		return fmt.Errorf("grb: rowPtr[0] = %d", m.rowPtr[0])
	}
	for i := 0; i < m.nrows; i++ {
		if m.rowPtr[i+1] < m.rowPtr[i] {
			return fmt.Errorf("grb: rowPtr decreasing at %d", i)
		}
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for e := lo; e < hi; e++ {
			if m.colIdx[e] < 0 || int(m.colIdx[e]) >= m.ncols {
				return fmt.Errorf("grb: col %d out of range in row %d", m.colIdx[e], i)
			}
			if e > lo && m.colIdx[e-1] >= m.colIdx[e] {
				return fmt.Errorf("grb: row %d not strictly sorted at %d", i, e)
			}
		}
	}
	if int64(len(m.colIdx)) != m.rowPtr[m.nrows] || len(m.vals) != len(m.colIdx) {
		return fmt.Errorf("grb: nnz arrays disagree")
	}
	return nil
}

// Tuples returns the matrix entries in (row, col, value) coordinate form,
// sorted by row then column; the analog of GrB_Matrix_extractTuples.
func (m *Matrix[T]) Tuples() (rows, cols []int, vals []T) {
	n := int(m.NVals())
	rows = make([]int, 0, n)
	cols = make([]int, 0, n)
	vals = make([]T, 0, n)
	for i := 0; i < m.nrows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for e := lo; e < hi; e++ {
			rows = append(rows, i)
			cols = append(cols, int(m.colIdx[e]))
			vals = append(vals, m.vals[e])
		}
	}
	return rows, cols, vals
}
