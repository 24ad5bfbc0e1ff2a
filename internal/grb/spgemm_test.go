package grb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphstudy/internal/gen"
)

// denseRef computes A*B by the definition, for cross-checking kernels.
func denseRef(s Semiring[int64], A, B *Matrix[int64]) map[[2]int]int64 {
	out := map[[2]int]int64{}
	for i := 0; i < A.NRows(); i++ {
		aCols, aVals := A.Row(i)
		for e, k := range aCols {
			bCols, bVals := B.Row(int(k))
			for e2, j := range bCols {
				p := s.Mul(aVals[e], bVals[e2])
				key := [2]int{i, int(j)}
				if old, ok := out[key]; ok {
					out[key] = s.Add.Op(old, p)
				} else {
					out[key] = p
				}
			}
		}
	}
	return out
}

func matrixToMap(m *Matrix[int64]) map[[2]int]int64 {
	out := map[[2]int]int64{}
	rows, cols, vals := m.Tuples()
	for k := range rows {
		out[[2]int{rows[k], cols[k]}] = vals[k]
	}
	return out
}

func randomMatrix(n int, edges int, seed uint64) *Matrix[int64] {
	g := gen.Random(uint32(n), edges, true, 20, seed)
	return MatrixFromGraph(g, func(w uint32) int64 { return int64(w) })
}

func TestMxMKernelsAgreeWithReference(t *testing.T) {
	s := PlusTimes[int64]()
	A := randomMatrix(30, 150, 1)
	B := randomMatrix(30, 180, 2)
	want := denseRef(s, A, B)
	for _, kernel := range []MxMKernel{KernelGustavson, KernelHash} {
		for name, ctx := range contextsUnderTest() {
			ctx.Kernel = kernel
			C, err := MxM(ctx, nil, s, A, B)
			if err != nil {
				t.Fatal(err)
			}
			if err := C.Check(); err != nil {
				t.Fatalf("%s/%v: %v", name, kernel, err)
			}
			if got := matrixToMap(C); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: product mismatch (%d vs %d entries)", name, kernel, len(got), len(want))
			}
		}
	}
}

func TestMxMMaskedKernelsAgree(t *testing.T) {
	s := PlusPair[int64]()
	A := randomMatrix(25, 120, 3)
	B := A.Transpose()
	mask := A.Pattern()
	ref := denseRef(s, A, B)
	want := map[[2]int]int64{}
	// Reference filtered by mask.
	for i := 0; i < A.NRows(); i++ {
		cols, _ := A.Row(i)
		for _, j := range cols {
			key := [2]int{i, int(j)}
			if v, ok := ref[key]; ok {
				want[key] = v
			}
		}
	}
	for _, kernel := range []MxMKernel{KernelDot, KernelGustavson, KernelHash} {
		ctx := NewGaloisBLASContext(4)
		ctx.Kernel = kernel
		C, err := MxM(ctx, mask, s, A, B)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixToMap(C); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: masked product mismatch (%d vs %d)", kernel, len(got), len(want))
		}
	}
}

func TestMxMAutoUsesDiagonalFastPath(t *testing.T) {
	v := NewVector[int64](8, Dense)
	for i := 0; i < 8; i++ {
		v.SetElement(i, int64(i+1))
	}
	D := Diag(v)
	B := randomMatrix(8, 30, 4)
	ctx := NewSerialContext()
	C, err := MxM(ctx, nil, PlusTimes[int64](), D, B)
	if err != nil {
		t.Fatal(err)
	}
	want := denseRef(PlusTimes[int64](), D, B)
	if got := matrixToMap(C); !reflect.DeepEqual(got, want) {
		t.Fatal("diagonal fast path wrong")
	}
}

func TestMxMDimensionErrors(t *testing.T) {
	ctx := NewSerialContext()
	A := randomMatrix(5, 10, 5)
	B := randomMatrix(6, 10, 6)
	if _, err := MxM(ctx, nil, PlusTimes[int64](), A, B); err == nil {
		t.Fatal("inner dimension mismatch accepted")
	}
	ctx.Kernel = KernelDot
	if _, err := MxM(ctx, nil, PlusTimes[int64](), A, A); err == nil {
		t.Fatal("dot kernel without mask accepted")
	}
}

func TestMxMProperty(t *testing.T) {
	// Gustavson, hash, and reference agree on arbitrary small matrices.
	f := func(seedA, seedB uint16) bool {
		A := randomMatrix(16, 60, uint64(seedA)+10)
		B := randomMatrix(16, 60, uint64(seedB)+20)
		s := PlusTimes[int64]()
		want := denseRef(s, A, B)
		for _, kernel := range []MxMKernel{KernelGustavson, KernelHash} {
			ctx := NewSerialContext()
			ctx.Kernel = kernel
			C, err := MxM(ctx, nil, s, A, B)
			if err != nil || C.Check() != nil {
				return false
			}
			if !reflect.DeepEqual(matrixToMap(C), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMTriangleCountIdentity(t *testing.T) {
	// On the undirected triangle 0-1-2, C<L> = L*U' with plus_pair and
	// reduce gives exactly 1 triangle.
	A, err := BuildMatrix(3, 3,
		[]int{0, 0, 1, 1, 2, 2},
		[]int{1, 2, 0, 2, 0, 1},
		[]int64{1, 1, 1, 1, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	L := A.Tril()
	U := A.Triu()
	ctx := NewSerialContext()
	C, err := MxM(ctx, L.Pattern(), PlusPair[int64](), L, U.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	if got := ReduceMatrix(NewSerialContext(), PlusMonoid[int64](), C); got != 1 {
		t.Fatalf("triangle count = %d, want 1", got)
	}
}

// maskedRef is denseRef restricted to the positions of mask (all of them
// for a nil mask).
func maskedRef(s Semiring[int64], mask *Pattern, A, B *Matrix[int64]) map[[2]int]int64 {
	want := denseRef(s, A, B)
	if mask == nil {
		return want
	}
	in := map[[2]int]bool{}
	for i := 0; i < mask.nrows; i++ {
		for _, j := range mask.colIdx[mask.rowPtr[i]:mask.rowPtr[i+1]] {
			in[[2]int{i, int(j)}] = true
		}
	}
	for key := range want {
		if !in[key] {
			delete(want, key)
		}
	}
	return want
}

// TestMxMMaskedDiagonal: a diagonal A under a mask takes a kernel that
// applies the mask; the diagonal kernel scales every row of B whole.
func TestMxMMaskedDiagonal(t *testing.T) {
	v := NewVector[int64](8, Dense)
	for i := 0; i < 8; i++ {
		v.SetElement(i, int64(i+1))
	}
	D, B := Diag(v), randomMatrix(8, 30, 4)
	mask := randomMatrix(8, 20, 5).Pattern()
	C, err := MxM(NewSerialContext(), mask, PlusTimes[int64](), D, B)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := matrixToMap(C), maskedRef(PlusTimes[int64](), mask, D, B); !reflect.DeepEqual(got, want) {
		t.Fatalf("masked diagonal product has %d entries, want %d", len(got), len(want))
	}
}

// TestMxMAllocsConstant pins what one MxM allocates at one worker: the
// result, its block table, the executor's loop launches and a fixed set of
// closures and scratch (12 for diag, 23-35 for the others), whatever the
// row count. Every kernel stages its rows in the Context's workspace,
// which AllocsPerRun's warm-up call sizes, so a product of 4096 rows in 64
// blocks allocates no more than one of 256 rows in 16, but for one growth
// of the hash kernel's map, which its longest row sizes. Staging each row
// in its own slices allocated about two per non-empty row.
func TestMxMAllocsConstant(t *testing.T) {
	s := PlusTimes[int64]()
	for _, k := range []struct {
		name   string
		kernel MxMKernel
		masked bool
	}{
		{"diag", KernelAuto, false},
		{"dot", KernelDot, true},
		{"gustavson", KernelGustavson, false},
		{"gustavson/masked", KernelGustavson, true},
		{"hash", KernelHash, false},
		{"hash/masked", KernelHash, true},
	} {
		var counts []float64
		for _, n := range []int{256, 4096} {
			A := randomMatrix(n, 4*n, 7)
			B := A.Transpose()
			if k.name == "diag" {
				v := NewVector[int64](n, Dense)
				for i := 0; i < n; i += 2 {
					v.SetElement(i, int64(i))
				}
				A = Diag(v)
			}
			var mask *Pattern
			if k.masked {
				mask = A.Pattern()
			}
			ctx := NewGaloisBLASContext(1)
			ctx.Kernel = k.kernel
			counts = append(counts, testing.AllocsPerRun(5, func() {
				if _, err := MxM(ctx, mask, s, A, B); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %.0f allocations at 256 rows, %.0f at 4096", k.name, counts[0], counts[1])
		if counts[1] > counts[0]+1 || counts[1] > 40 {
			t.Errorf("%s: %.0f allocations at 4096 rows, %.0f at 256; want at most one more, and at most 40", k.name, counts[1], counts[0])
		}
	}
}

// FuzzMxMKernels holds every MxM kernel to denseRef: a random shape,
// density, block size, kernel and mask, or a diagonal A with random gaps
// under KernelAuto, on every executor.
func FuzzMxMKernels(f *testing.F) {
	f.Add(int64(1), uint32(0))
	f.Add(int64(2), uint32(0x1234567))
	f.Add(int64(3), uint32(0xfedcba9))
	f.Add(int64(4), uint32(0x2a))
	f.Fuzz(func(t *testing.T, seed int64, cfg uint32) {
		next := func(k uint32) int {
			v := int(cfg % k)
			cfg /= k
			return v
		}
		r := rand.New(rand.NewSource(seed))
		val := func(r *rand.Rand) int64 { return int64(r.Intn(7)) - 3 }
		m, inner, n := 1+next(70), 1+next(70), 1+next(70)
		density := next(8)
		kernel := []MxMKernel{KernelAuto, KernelGustavson, KernelHash, KernelDot}[next(4)]
		masked := kernel == KernelDot || next(2) == 1
		block := []int{0, 1, 3, 16, 1000}[next(5)]
		A := randMatrix(r, m, inner, density*m, val)
		if next(3) == 0 {
			v := NewVector[int64](m, Sorted)
			for i := 0; i < m; i++ {
				if r.Intn(3) != 0 {
					v.SetElement(i, val(r))
				}
			}
			A, inner, kernel = Diag(v), m, KernelAuto
		}
		B := randMatrix(r, inner, n, density*inner, val)
		var mask *Pattern
		if masked {
			mask = randMatrix(r, m, n, 2*density*m, val).Pattern()
		}
		want := maskedRef(PlusTimes[int64](), mask, A, B)
		for name, ctx := range denseOracleContexts(block) {
			ctx.Kernel = kernel
			C, err := MxM(ctx, mask, PlusTimes[int64](), A, B)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, kernel, err)
			}
			if err := C.Check(); err != nil {
				t.Fatalf("%s/%v: %v", name, kernel, err)
			}
			if got := matrixToMap(C); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v block=%d: %d entries, want %d", name, kernel, block, len(got), len(want))
			}
		}
	})
}
