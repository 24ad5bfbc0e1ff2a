package grb

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// build4 returns the matrix
//
//	[ .  1  2  . ]
//	[ .  .  3  . ]
//	[ 4  .  .  5 ]
//	[ .  .  .  . ]
func build4(t *testing.T) *Matrix[int64] {
	t.Helper()
	m, err := BuildMatrix(4, 4,
		[]int{0, 0, 1, 2, 2},
		[]int{1, 2, 2, 0, 3},
		[]int64{1, 2, 3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildMatrixBasic(t *testing.T) {
	m := build4(t)
	if m.NRows() != 4 || m.NCols() != 4 || m.NVals() != 5 {
		t.Fatalf("dims/nvals wrong: %dx%d %d", m.NRows(), m.NCols(), m.NVals())
	}
	if v, ok := m.ExtractElement(2, 3); !ok || v != 5 {
		t.Fatalf("ExtractElement(2,3) = %d,%v", v, ok)
	}
	if _, ok := m.ExtractElement(3, 0); ok {
		t.Fatal("row 3 should be empty")
	}
	if m.RowDegree(0) != 2 || m.RowDegree(3) != 0 {
		t.Fatal("row degrees wrong")
	}
}

func TestBuildMatrixDup(t *testing.T) {
	m, err := BuildMatrix(2, 2,
		[]int{0, 0, 0},
		[]int{1, 1, 1},
		[]int64{5, 6, 7},
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ExtractElement(0, 1); v != 18 {
		t.Fatalf("dup-summed value = %d, want 18", v)
	}
	// nil dup keeps the last value.
	m2, _ := BuildMatrix(2, 2, []int{0, 0}, []int{1, 1}, []int64{5, 9}, nil)
	if v, _ := m2.ExtractElement(0, 1); v != 9 {
		t.Fatalf("last-wins value = %d, want 9", v)
	}
}

func TestBuildMatrixErrors(t *testing.T) {
	if _, err := BuildMatrix(2, 2, []int{0}, []int{0, 1}, []int64{1, 2}, nil); err == nil {
		t.Fatal("mismatched tuples accepted")
	}
	if _, err := BuildMatrix(2, 2, []int{5}, []int{0}, []int64{1}, nil); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	m := build4(t)
	tt := m.Transpose().Transpose()
	r1, c1, v1 := m.Tuples()
	r2, c2, v2 := tt.Tuples()
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("transpose round trip mismatch")
	}
}

func TestCSCMirrorsCSR(t *testing.T) {
	m := build4(t)
	m.EnsureCSC()
	rows, vals := m.Col(2)
	if !reflect.DeepEqual(rows, []int32{0, 1}) || !reflect.DeepEqual(vals, []int64{2, 3}) {
		t.Fatalf("Col(2) = %v %v", rows, vals)
	}
	if !m.HasCSC() {
		t.Fatal("HasCSC false after EnsureCSC")
	}
}

// TestEnsureCSCConcurrentFirstUse: runs sharing one prepared matrix may
// all reach EnsureCSC first. Under -race this fails if the build is
// unsynchronised, and without it a caller could see colPtr set while
// rowIdx is still nil.
func TestEnsureCSCConcurrentFirstUse(t *testing.T) {
	m := build4(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.HasCSC() {
				m.Col(0)
			}
			m.EnsureCSC()
			if rows, _ := m.Col(2); len(rows) != 2 {
				t.Errorf("Col(2) has %d rows, want 2", len(rows))
			}
		}()
	}
	wg.Wait()
}

func TestTrilTriu(t *testing.T) {
	m := build4(t)
	lo, up := m.Tril(), m.Triu()
	if lo.NVals()+up.NVals() != m.NVals() {
		t.Fatal("tril+triu lost entries (no diagonal present)")
	}
	rows, cols, _ := lo.Tuples()
	for k := range rows {
		if cols[k] >= rows[k] {
			t.Fatalf("tril entry (%d,%d)", rows[k], cols[k])
		}
	}
	rows, cols, _ = up.Tuples()
	for k := range rows {
		if cols[k] <= rows[k] {
			t.Fatalf("triu entry (%d,%d)", rows[k], cols[k])
		}
	}
}

func TestSelectMatrix(t *testing.T) {
	m := build4(t)
	sel := SelectMatrix(m, func(v int64, _, _ int) bool { return v >= 3 })
	if sel.NVals() != 3 {
		t.Fatalf("select kept %d entries, want 3", sel.NVals())
	}
	if err := sel.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReduceMatrix(t *testing.T) {
	m := build4(t)
	if got := ReduceMatrix(NewSerialContext(), PlusMonoid[int64](), m); got != 15 {
		t.Fatalf("reduce = %d, want 15", got)
	}
	if got := ReduceMatrix(NewSerialContext(), MaxMonoid[int64](), m); got != 5 {
		t.Fatalf("max reduce = %d", got)
	}
}

// TestDiagAndIsDiagonal builds Diag from every representation, with
// entries set out of order and a gap, and checks that the matrix holds
// exactly v's entries and shares no memory with v.
func TestDiagAndIsDiagonal(t *testing.T) {
	want := map[[2]int]int64{{0, 0}: 2, {2, 2}: 4, {4, 4}: -1}
	for _, rep := range Reps() {
		v := NewVector[int64](5, rep)
		for _, i := range []int{4, 0, 2} {
			v.SetElement(i, want[[2]int{i, i}])
		}
		d := Diag(v)
		if err := d.Check(); err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if !d.IsDiagonal() || d.NRows() != 5 || d.NCols() != 5 {
			t.Fatalf("%v: Diag result not a 5x5 diagonal", rep)
		}
		if got := matrixToMap(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Diag entries %v, want %v", rep, got, want)
		}
		v.SetElement(0, 7)
		if val, _ := d.ExtractElement(0, 0); val != 2 {
			t.Fatalf("%v: Diag shares memory with its vector", rep)
		}
	}
	if build4(t).IsDiagonal() {
		t.Fatal("non-diagonal matrix reported diagonal")
	}
}

func TestMatrixDupIndependent(t *testing.T) {
	m := build4(t)
	d := m.Dup()
	d.vals[0] = 99
	if m.vals[0] == 99 {
		t.Fatal("Dup aliases vals")
	}
}

func TestBuildMatrixSortedProperty(t *testing.T) {
	f := func(rows, cols []uint8, seed int64) bool {
		n := min(len(rows), len(cols))
		r := make([]int, n)
		c := make([]int, n)
		v := make([]int64, n)
		for i := 0; i < n; i++ {
			r[i], c[i], v[i] = int(rows[i]%16), int(cols[i]%16), int64(i)
		}
		m, err := BuildMatrix(16, 16, r, c, v, func(a, b int64) int64 { return a + b })
		if err != nil {
			return false
		}
		return m.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
