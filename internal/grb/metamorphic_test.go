package grb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Metamorphic tests: perturbing the row-block boundaries (Context.Block
// overrides the deterministic DetBlock size) must not change kernel output.
//
// Two classes of kernel make different promises:
//
//   - Blocking-INDEPENDENT kernels (pull SpMV, SpGEMM, the entry-producing
//     vector ops) compute each output slot from its own inputs; blocks only
//     partition the output space, so any block size gives bitwise the same
//     result. These are tested here against every block size.
//
//   - Blocking-DEPENDENT kernels (push SpMV over float, OrderedReduce over
//     float) fold partial sums per block, and float addition is
//     non-associative, so the blocking is part of the result's definition.
//     For those, only cross-executor stability at a FIXED blocking is
//     promised (see equiv_test.go) — except under order-independent
//     semirings like min-plus and lor-land, where regrouping is harmless
//     and blocking-invariance holds again; those cases are tested here too.

var metamorphicBlocks = []int{0, 1, 7, 33, 256, 1 << 20}

func blockSweepContexts() []*Context {
	var out []*Context
	for _, w := range equivWorkerCounts() {
		out = append(out, NewGaloisBLASContext(w))
	}
	return out
}

func TestMetamorphicPullSpMVBlockInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	n := 333
	A := randMatrix(r, n, n, n*6, randFloat)
	A.EnsureCSC()
	u := randVector(r, n, n/2, Dense, randFloat)
	mask := randMask(r, n, 0.5, false)
	run := func(ctx *Context, block int) *Vector[float64] {
		ctx.Block = block
		w := NewVector[float64](n, Sorted)
		if err := MxV(ctx, w, mask, nil, PlusTimes[float64](), A, u, Desc{Replace: true, Force: HintPull}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := run(NewSerialContext(), 0)
	for _, ctx := range blockSweepContexts() {
		for _, block := range metamorphicBlocks {
			mustEqualVectors(t, fmt.Sprintf("pull/block=%d", block), want, run(ctx, block))
		}
	}
}

func TestMetamorphicPushSpMVBlockInvariantOrderFree(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	n := 333
	// min-plus over uint32: min is associative, commutative, and exact, so
	// regrouping the per-block scatters cannot change any output bit.
	A := randMatrix(r, n, n, n*6, randWeight)
	A.EnsureCSC()
	u := randVector(r, n, n/2, Sorted, randWeight)
	run := func(ctx *Context, block int) *Vector[uint32] {
		ctx.Block = block
		w := NewVector[uint32](n, Sorted)
		if err := MxV(ctx, w, nil, nil, MinPlus[uint32](), A, u, Desc{Replace: true, Force: HintPush}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := run(NewSerialContext(), 0)
	for _, ctx := range blockSweepContexts() {
		for _, block := range metamorphicBlocks {
			mustEqualVectors(t, fmt.Sprintf("push-minplus/block=%d", block), want, run(ctx, block))
		}
	}
}

func TestMetamorphicVecOpsBlockInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	n := 401
	u := randVector(r, n, n/2, Sorted, randFloat)
	v := randVector(r, n, n/3, Dense, randFloat)
	mask := randMask(r, n, 0.4, true)
	plus := func(a, b float64) float64 { return a + b }
	ops := map[string]func(ctx *Context) *Vector[float64]{
		"ewiseadd": func(ctx *Context) *Vector[float64] {
			w := NewVector[float64](n, Sorted)
			if err := EWiseAdd(ctx, w, mask, nil, plus, u, v, Desc{Replace: true}); err != nil {
				t.Fatal(err)
			}
			return w
		},
		"apply": func(ctx *Context) *Vector[float64] {
			w := NewVector[float64](n, Sorted)
			if err := Apply(ctx, w, mask, nil, func(a float64) float64 { return a * 3 }, u, Desc{Replace: true}); err != nil {
				t.Fatal(err)
			}
			return w
		},
		"assign": func(ctx *Context) *Vector[float64] {
			w := NewVector[float64](n, Sorted)
			if err := AssignConstant(ctx, w, mask, nil, 1.25, Desc{Replace: true}); err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	for name, op := range ops {
		serial := NewSerialContext()
		serial.Block = 0
		want := op(serial)
		for _, ctx := range blockSweepContexts() {
			for _, block := range metamorphicBlocks {
				ctx.Block = block
				mustEqualVectors(t, fmt.Sprintf("%s/block=%d", name, block), want, op(ctx))
			}
		}
	}
}

// TestMetamorphicSpGEMMBlockInvariant sweeps every MxM kernel over the
// block sizes: unmasked Gustavson and hash, masked dot, Gustavson and
// hash, and the diagonal kernel with a full diagonal and with gaps. A has
// empty rows on both sides of several block boundaries, and the last two
// products are empty (an empty B, an empty mask).
func TestMetamorphicSpGEMMBlockInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	n := 90
	gaps := map[int]bool{6: true, 7: true, 32: true, 33: true, 34: true, 63: true, 64: true, 65: true}
	A := SelectMatrix(randMatrix(r, n, n, n*5, randFloat), func(_ float64, i, _ int) bool { return !gaps[i] })
	B := randMatrix(r, n, n, n*5, randFloat)
	mask := randMatrix(r, n, n, n*8, randFloat).Pattern()
	full := NewVector[float64](n, Dense)
	holes := NewVector[float64](n, Sorted)
	for i := 0; i < n; i++ {
		full.SetElement(i, randFloat(r))
		if i%3 != 1 && !gaps[i] {
			holes.SetElement(i, randFloat(r))
		}
	}
	empty := NewMatrixFromCSR[float64](n, n, make([]int64, n+1), nil, nil)
	cases := []struct {
		name   string
		kernel MxMKernel
		mask   *Pattern
		A, B   *Matrix[float64]
	}{
		{"gustavson", KernelGustavson, nil, A, B},
		{"hash", KernelHash, nil, A, B},
		{"dot/masked", KernelDot, mask, A, B},
		{"gustavson/masked", KernelGustavson, mask, A, B},
		{"hash/masked", KernelHash, mask, A, B},
		{"diag/full", KernelAuto, nil, Diag(full), B},
		{"diag/gaps", KernelAuto, nil, Diag(holes), A},
		{"empty/B", KernelGustavson, nil, A, empty},
		{"empty/mask", KernelDot, empty.Pattern(), A, B},
	}
	for _, c := range cases {
		run := func(ctx *Context, block int) *Matrix[float64] {
			ctx.Block = block
			ctx.Kernel = c.kernel
			C, err := MxM(ctx, c.mask, PlusTimes[float64](), c.A, c.B)
			if err != nil {
				t.Fatal(err)
			}
			return C
		}
		want := run(NewSerialContext(), 0)
		if !strings.HasPrefix(c.name, "empty") && want.NVals() == 0 {
			t.Fatalf("%s: empty product, want entries", c.name)
		}
		for _, ctx := range blockSweepContexts() {
			for _, block := range metamorphicBlocks {
				mustEqualMatrices(t, fmt.Sprintf("spgemm/%s/block=%d", c.name, block), want, run(ctx, block))
			}
		}
	}
}
