package grb

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// workersFlag narrows the worker counts the equivalence layer sweeps: 0
// keeps the default {1, 2, 4, 7}; a positive value tests {1, N}. CI's
// test-parallel job passes -grb.workers=4.
var workersFlag = flag.Int("grb.workers", 0, "worker count for kernel equivalence tests (0 = sweep 1,2,4,7)")

func equivWorkerCounts() []int {
	if *workersFlag > 0 {
		return []int{1, *workersFlag}
	}
	return []int{1, 2, 4, 7}
}

// parallelContexts returns one kernel context per scheduling policy and
// worker count under test, each multi-worker one both as it is and split
// (every call parallel). The serial context is the reference all of them
// must match bit-for-bit.
func parallelContexts() map[string]*Context {
	out := map[string]*Context{}
	for _, w := range equivWorkerCounts() {
		out[fmt.Sprintf("static-%d", w)] = NewSuiteSparseContext(w)
		out[fmt.Sprintf("steal-%d", w)] = NewGaloisBLASContext(w)
		if w > 1 {
			out[fmt.Sprintf("static-%d/split", w)] = split(NewSuiteSparseContext(w))
			out[fmt.Sprintf("steal-%d/split", w)] = split(NewGaloisBLASContext(w))
		}
	}
	return out
}

// bitsOf maps a kernel element to its exact bit pattern, so float comparisons
// distinguish results that merely round the same way when printed.
func bitsOf(v any) uint64 {
	switch x := v.(type) {
	case float64:
		return math.Float64bits(x)
	case float32:
		return uint64(math.Float32bits(x))
	case uint32:
		return uint64(x)
	case uint64:
		return x
	case int32:
		return uint64(uint32(x))
	case int64:
		return uint64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("bitsOf: unsupported %T", v))
}

func mustEqualVectors[T any](t *testing.T, label string, want, got *Vector[T]) {
	t.Helper()
	wi, wv := want.Entries()
	gi, gv := got.Entries()
	if len(wi) != len(gi) {
		t.Fatalf("%s: %d entries, want %d", label, len(gi), len(wi))
	}
	for k := range wi {
		if wi[k] != gi[k] {
			t.Fatalf("%s: entry %d at index %d, want index %d", label, k, gi[k], wi[k])
		}
		if bitsOf(any(gv[k])) != bitsOf(any(wv[k])) {
			t.Fatalf("%s: value at %d = %v (bits %x), want %v (bits %x)",
				label, wi[k], gv[k], bitsOf(any(gv[k])), wv[k], bitsOf(any(wv[k])))
		}
	}
}

func mustEqualMatrices[T any](t *testing.T, label string, want, got *Matrix[T]) {
	t.Helper()
	if err := got.Check(); err != nil {
		t.Fatalf("%s: invalid result: %v", label, err)
	}
	wr, wc, wv := want.Tuples()
	gr, gc, gv := got.Tuples()
	if len(wr) != len(gr) {
		t.Fatalf("%s: %d entries, want %d", label, len(gr), len(wr))
	}
	for k := range wr {
		if wr[k] != gr[k] || wc[k] != gc[k] {
			t.Fatalf("%s: entry %d at (%d,%d), want (%d,%d)", label, k, gr[k], gc[k], wr[k], wc[k])
		}
		if bitsOf(any(gv[k])) != bitsOf(any(wv[k])) {
			t.Fatalf("%s: value at (%d,%d) bits %x, want %x",
				label, wr[k], wc[k], bitsOf(any(gv[k])), bitsOf(any(wv[k])))
		}
	}
}

// randMatrix builds a random nrows x ncols matrix with about nnz entries.
func randMatrix[T any](r *rand.Rand, nrows, ncols, nnz int, val func(*rand.Rand) T) *Matrix[T] {
	rows := make([]int, nnz)
	cols := make([]int, nnz)
	vals := make([]T, nnz)
	for k := 0; k < nnz; k++ {
		rows[k] = r.Intn(nrows)
		cols[k] = r.Intn(ncols)
		vals[k] = val(r)
	}
	m, err := BuildMatrix(nrows, ncols, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// heavyRowMatrix puts roughly half of all entries in row 0: the single-row-
// dominated shape that defeats static partitioning and exercises stealing.
func heavyRowMatrix[T any](r *rand.Rand, n, nnz int, val func(*rand.Rand) T) *Matrix[T] {
	rows := make([]int, nnz)
	cols := make([]int, nnz)
	vals := make([]T, nnz)
	for k := 0; k < nnz; k++ {
		if k < nnz/2 {
			rows[k] = 0
		} else {
			rows[k] = r.Intn(n)
		}
		cols[k] = r.Intn(n)
		vals[k] = val(r)
	}
	m, err := BuildMatrix(n, n, rows, cols, vals, nil)
	if err != nil {
		panic(err)
	}
	return m
}

func randVector[T any](r *rand.Rand, n, nvals int, rep Rep, val func(*rand.Rand) T) *Vector[T] {
	v := NewVector[T](n, rep)
	for k := 0; k < nvals; k++ {
		v.SetElement(r.Intn(n), val(r))
	}
	return v
}

// randMask allows about density of the n positions; complement inverts it.
func randMask(r *rand.Rand, n int, density float64, complement bool) *Mask {
	sel := NewVector[bool](n, List)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			sel.SetElement(i, true)
		}
	}
	m := StructMask(sel)
	m.Complement = complement
	return m
}

func randFloat(r *rand.Rand) float64 {
	// Mixed magnitudes so float addition order matters; the equivalence
	// tests would pass vacuously with benign values.
	return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)-6))
}

func randWeight(r *rand.Rand) uint32 { return uint32(r.Intn(1000)) + 1 }

func randBool(r *rand.Rand) bool { return true }

// spmvCase runs one (op, hint) spmv configuration on every parallel context
// and demands bit-identical results against the serial reference.
func spmvCase[T any](t *testing.T, label string, s Semiring[T], A *Matrix[T], u *Vector[T], mask *Mask, accum BinaryOp[T], desc Desc, w0 *Vector[T], mxv bool) {
	t.Helper()
	run := func(ctx *Context) *Vector[T] {
		w := w0.Dup()
		var err error
		if mxv {
			err = MxV(ctx, w, mask, accum, s, A, u, desc)
		} else {
			err = VxM(ctx, w, mask, accum, s, u, A, desc)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return w
	}
	want := run(NewSerialContext())
	for name, ctx := range parallelContexts() {
		mustEqualVectors(t, label+"/"+name, want, run(ctx))
	}
}

func TestEquivSpMVFloat64(t *testing.T) {
	s := PlusTimes[float64]()
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 150 + r.Intn(200)
		A := randMatrix(r, n, n, n*6, randFloat)
		A.EnsureCSC()
		reps := []Rep{Dense, Sorted, List}
		u := randVector(r, n, n/2, reps[int(seed)%3], randFloat)
		masks := []*Mask{nil, randMask(r, n, 0.4, false), randMask(r, n, 0.3, true)}
		mask := masks[int(seed)%3]
		var accum BinaryOp[float64]
		if seed%2 == 1 {
			accum = func(a, b float64) float64 { return a + b }
		}
		w0 := randVector(r, n, n/4, Sorted, randFloat)
		for _, hint := range []KernelHint{HintPush, HintPull} {
			desc := Desc{Replace: seed%2 == 0, Force: hint}
			label := fmt.Sprintf("seed%d/hint%d", seed, hint)
			spmvCase(t, label+"/mxv", s, A, u, mask, accum, desc, w0, true)
			spmvCase(t, label+"/vxm", s, A, u, mask, accum, desc, w0, false)
		}
	}
}

func TestEquivSpMVMinPlusUint32(t *testing.T) {
	s := MinPlus[uint32]()
	r := rand.New(rand.NewSource(7))
	n := 300
	A := randMatrix(r, n, n, n*5, randWeight)
	A.EnsureCSC()
	u := randVector(r, n, n/3, Sorted, randWeight)
	w0 := NewVector[uint32](n, Sorted)
	for _, hint := range []KernelHint{HintPush, HintPull} {
		spmvCase(t, fmt.Sprintf("minplus/hint%d", hint), s, A, u, nil, nil,
			Desc{Replace: true, Force: hint}, w0, true)
	}
}

func TestEquivSpMVBool(t *testing.T) {
	s := LorLand()
	r := rand.New(rand.NewSource(11))
	n := 400
	A := randMatrix(r, n, n, n*4, randBool)
	A.EnsureCSC()
	u := randVector(r, n, n/8, List, randBool)
	mask := randMask(r, n, 0.5, true)
	w0 := NewVector[bool](n, List)
	for _, hint := range []KernelHint{HintPush, HintPull} {
		spmvCase(t, fmt.Sprintf("bool/hint%d", hint), s, A, u, mask, nil,
			Desc{Replace: true, Force: hint}, w0, false)
	}
}

// TestEquivSpMVEdgeCases covers the inputs most likely to break blocking
// logic: an empty operand, a mask that filters everything, and a matrix
// whose nonzeros concentrate in one row.
func TestEquivSpMVEdgeCases(t *testing.T) {
	s := PlusTimes[float64]()
	r := rand.New(rand.NewSource(23))
	n := 257
	A := randMatrix(r, n, n, n*5, randFloat)
	A.EnsureCSC()
	w0 := NewVector[float64](n, Sorted)

	empty := NewVector[float64](n, Sorted)
	full := NewVector[bool](n, List)
	for i := 0; i < n; i++ {
		full.SetElement(i, true)
	}
	allMasked := StructMask(full)
	allMasked.Complement = true

	u := randVector(r, n, n/2, Dense, randFloat)
	heavy := heavyRowMatrix(r, n, n*6, randFloat)
	heavy.EnsureCSC()

	for _, hint := range []KernelHint{HintPush, HintPull} {
		desc := Desc{Replace: true, Force: hint}
		spmvCase(t, fmt.Sprintf("empty-u/hint%d", hint), s, A, empty, nil, nil, desc, w0, true)
		spmvCase(t, fmt.Sprintf("all-masked/hint%d", hint), s, A, u, allMasked, nil, desc, w0, true)
		spmvCase(t, fmt.Sprintf("heavy-row/hint%d", hint), s, heavy, u, nil, nil, desc, w0, true)
		spmvCase(t, fmt.Sprintf("heavy-row-vxm/hint%d", hint), s, heavy, u, nil, nil, desc, w0, false)
	}
}

func TestEquivVecOps(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 200 + r.Intn(300)
		reps := []Rep{Dense, Sorted, List}
		u := randVector(r, n, n/2, reps[int(seed)%3], randFloat)
		v := randVector(r, n, n/3, reps[int(seed+1)%3], randFloat)
		mask := randMask(r, n, 0.5, seed%2 == 0)
		w0 := randVector(r, n, n/4, Sorted, randFloat)
		idxVec := randVector(r, n, n/2, Sorted, func(r *rand.Rand) uint32 { return uint32(r.Intn(n)) })
		plus := func(a, b float64) float64 { return a + b }

		type vecOp struct {
			name string
			run  func(ctx *Context) *Vector[float64]
		}
		ops := []vecOp{
			{"ewiseadd", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				if err := EWiseAdd(ctx, w, mask, plus, plus, u, v, Desc{}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
			{"ewisemult", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				if err := EWiseMult(ctx, w, mask, nil, plus, u, v, Desc{Replace: true}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
			{"apply", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				if err := Apply(ctx, w, mask, plus, func(a float64) float64 { return a * 1.5 }, u, Desc{}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
			{"select", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				pred := func(v float64, i, j int) bool { return v > 0 }
				if err := SelectVector(ctx, w, mask, pred, u, Desc{Replace: true}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
			{"assign", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				if err := AssignConstant(ctx, w, mask, plus, 2.5, Desc{}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
			{"gather", func(ctx *Context) *Vector[float64] {
				w := w0.Dup()
				if err := Gather(ctx, w, u, idxVec, Desc{Replace: true}); err != nil {
					t.Fatal(err)
				}
				return w
			}},
		}
		for _, op := range ops {
			want := op.run(NewSerialContext())
			for name, ctx := range parallelContexts() {
				mustEqualVectors(t, fmt.Sprintf("seed%d/%s/%s", seed, op.name, name), want, op.run(ctx))
			}
		}

		wantSum := ReduceVector(NewSerialContext(), PlusMonoid[float64](), u)
		for name, ctx := range parallelContexts() {
			if got := ReduceVector(ctx, PlusMonoid[float64](), u); math.Float64bits(got) != math.Float64bits(wantSum) {
				t.Fatalf("seed%d/reduce/%s: %x, want %x", seed, name,
					math.Float64bits(got), math.Float64bits(wantSum))
			}
		}
	}
}

func TestEquivMatrixReduce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 300
	A := heavyRowMatrix(r, n, n*7, randFloat)
	wantRows := ReduceRows(NewSerialContext(), PlusMonoid[float64](), A)
	wantAll := ReduceMatrix(NewSerialContext(), PlusMonoid[float64](), A)
	for name, ctx := range parallelContexts() {
		mustEqualVectors(t, "reducerows/"+name, wantRows, ReduceRows(ctx, PlusMonoid[float64](), A))
		if got := ReduceMatrix(ctx, PlusMonoid[float64](), A); math.Float64bits(got) != math.Float64bits(wantAll) {
			t.Fatalf("reducematrix/%s: %x, want %x", name, math.Float64bits(got), math.Float64bits(wantAll))
		}
	}
}

func TestEquivMxM(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := 120
	A := randMatrix(r, n, n, n*5, randFloat)
	B := randMatrix(r, n, n, n*5, randFloat)
	mask := randMatrix(r, n, n, n*8, randFloat).Pattern()
	s := PlusTimes[float64]()
	for _, k := range []MxMKernel{KernelGustavson, KernelHash, KernelDot} {
		var m *Pattern
		if k == KernelDot {
			m = mask
		}
		run := func(ctx *Context) *Matrix[float64] {
			ctx.Kernel = k
			C, err := MxM(ctx, m, s, A, B)
			if err != nil {
				t.Fatal(err)
			}
			return C
		}
		want := run(NewSerialContext())
		for name, ctx := range parallelContexts() {
			mustEqualMatrices(t, fmt.Sprintf("%v/%s", k, name), want, run(ctx))
		}
	}
}

// TestEquivFusedBFSStep: the fused BFS step (FusedAssignExpand, the
// kernel behind the planner's bfs-expand window) stamps the same levels and
// yields the same next frontier on every executor and worker count.
func TestEquivFusedBFSStep(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	n := 500
	A := randMatrix(r, n, n, n*6, randBool)
	run := func(ctx *Context) (*Vector[int32], *Vector[bool]) {
		dist := NewVector[int32](n, Dense)
		dist.DenseFill(0)
		frontier := NewVector[bool](n, List)
		for _, v := range []int{0, 7, 123, 499} {
			frontier.SetElement(v, true)
		}
		// Two rounds, so the second expands a multi-block frontier.
		for level := int32(1); level <= 2; level++ {
			if _, applied, err := FusedAssignExpand(ctx, dist, level, frontier, A); err != nil || !applied {
				t.Fatalf("FusedAssignExpand: applied=%v err=%v", applied, err)
			}
		}
		return dist, frontier
	}
	wantDist, wantNext := run(NewSerialContext())
	for name, ctx := range parallelContexts() {
		gotDist, gotNext := run(ctx)
		mustEqualVectors(t, "fused-dist/"+name, wantDist, gotDist)
		mustEqualVectors(t, "fused-next/"+name, wantNext, gotNext)
	}
}
