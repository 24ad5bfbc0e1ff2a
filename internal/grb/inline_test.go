package grb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphstudy/internal/trace"
)

// regions runs fn with a trace installed and returns its region spans.
func regions(fn func()) []trace.Event {
	tr := trace.New()
	trace.Install(tr)
	defer trace.Install(nil)
	fn()
	var out []trace.Event
	for _, ev := range tr.Events() {
		if ev.Cat == trace.CatRegion {
			out = append(out, ev)
		}
	}
	return out
}

// TestInlineDecision pins exFor: on a two-worker Context a push VxM over a
// 10-entry frontier runs one region inline (one worker), while a pull over
// the whole matrix starts both workers.
func TestInlineDecision(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 20000
	A := randMatrix(r, n, n, 4*n, randFloat)
	A.EnsureCSC()
	ctx := NewGaloisBLASContext(2)
	s := PlusTimes[float64]()

	u := randVector(r, n, 10, Sorted, randFloat)
	push := regions(func() {
		if err := VxM(ctx, NewVector[float64](n, Sorted), nil, nil, s, u, A, Desc{}); err != nil {
			t.Fatal(err)
		}
	})
	if len(push) != 1 || push[0].Workers != 1 {
		t.Fatalf("push over a 10-entry frontier: regions %+v, want one with 1 worker", push)
	}

	full := NewVector[float64](n, Dense)
	full.DenseFill(1)
	pull := regions(func() {
		if err := VxM(ctx, NewVector[float64](n, Dense), nil, nil, s, full, A, Desc{Force: HintPull}); err != nil {
			t.Fatal(err)
		}
	})
	if len(pull) != 1 || pull[0].Workers != 2 {
		t.Fatalf("pull over the whole matrix: regions %+v, want one with 2 workers", pull)
	}
}

// TestOneWorkerRunsInline: a one-worker Context runs every region on the
// caller, whatever its work, so it never starts a goroutine.
func TestOneWorkerRunsInline(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 20000
	A := randMatrix(r, n, n, 4*n, randFloat)
	A.EnsureCSC()
	full := NewVector[float64](n, Dense)
	full.DenseFill(1)
	for _, ctx := range []*Context{NewSuiteSparseContext(1), NewGaloisBLASContext(1)} {
		evs := regions(func() {
			if err := VxM(ctx, NewVector[float64](n, Dense), nil, nil, PlusTimes[float64](), full, A, Desc{Force: HintPull}); err != nil {
				t.Fatal(err)
			}
			if _, err := MxM(ctx, nil, PlusTimes[float64](), A, A); err != nil {
				t.Fatal(err)
			}
		})
		if len(evs) == 0 {
			t.Fatal("no regions recorded")
		}
		for _, ev := range evs {
			if ev.Op != "galois.ForRange.serial" || ev.Workers != 1 {
				t.Fatalf("%s: region %s with %d workers, want every region inline", ctx.Ex.Name(), ev.Op, ev.Workers)
			}
		}
	}
}

// digest flattens a kernel result to its exact bits.
func digest(x any) []uint64 {
	var out []uint64
	switch v := x.(type) {
	case *Vector[float64]:
		idx, vals := v.Entries()
		for k := range idx {
			out = append(out, uint64(idx[k]), math.Float64bits(vals[k]))
		}
	case *Vector[bool]:
		idx, _ := v.Entries()
		for _, i := range idx {
			out = append(out, uint64(i))
		}
	case *Matrix[float64]:
		rows, cols, vals := v.Tuples()
		for k := range rows {
			out = append(out, uint64(rows[k])<<32|uint64(cols[k]), math.Float64bits(vals[k]))
		}
	case float64:
		out = append(out, math.Float64bits(v))
	default:
		panic(fmt.Sprintf("digest: %T", x))
	}
	return out
}

// TestInlineEquivalenceAcrossChunk: every kernel family gives the same
// bits on the serial, static-2 and steal-4 Contexts, with their own inline
// decisions, at a size whose calls all fit one chunk and at one whose full
// passes do not.
func TestInlineEquivalenceAcrossChunk(t *testing.T) {
	for _, n := range []int{300, 3 * chunk / 2} {
		r := rand.New(rand.NewSource(int64(n)))
		A := randMatrix(r, n, n, 4*n, randFloat)
		A.EnsureCSC()
		B := randMatrix(r, n, n, 4*n, randFloat)
		mask := randMatrix(r, n, n, 4*n, randFloat).Pattern()
		sparse := randVector(r, n, n/20, Sorted, randFloat)
		partial := randVector(r, n, n/2, Dense, randFloat)
		full := NewVector[float64](n, Dense)
		full.DenseFill(0.5)
		d := randVector(r, n, n/2, Sorted, randFloat)
		bm := randMask(r, n, 0.3, false)
		pb := NewVector[bool](n, Sorted)
		for _, i := range []int{0, 1, n / 2, n - 1} {
			pb.SetElement(i, true)
		}
		ab := randMatrix(r, n, n, 4*n, randBool)
		s := PlusTimes[float64]()
		plus := func(a, b float64) float64 { return a + b }
		dense := func(v *Vector[float64]) *Vector[float64] {
			w := v.Dup()
			w.Convert(Dense)
			return w
		}
		type family struct {
			name string
			run  func(ctx *Context) (any, error)
		}
		families := []family{
			{"vxm-push-sparse", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, VxM(ctx, w, nil, nil, s, sparse, A, Desc{Force: HintPush})
			}},
			{"vxm-push-partial-dense", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, VxM(ctx, w, nil, nil, s, partial, A, Desc{Force: HintPush})
			}},
			{"vxm-push-full-dense", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, VxM(ctx, w, nil, nil, s, full, A, Desc{Force: HintPush})
			}},
			{"mxv-pull-dense", func(ctx *Context) (any, error) {
				w := dense(d)
				return w, MxV(ctx, w, bm, plus, s, A, partial, Desc{Force: HintPull})
			}},
			{"vxm-pull-sorted", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, VxM(ctx, w, bm, nil, s, partial, A, Desc{Force: HintPull})
			}},
			{"ewiseadd", func(ctx *Context) (any, error) {
				w := dense(d)
				return w, EWiseAdd(ctx, w, nil, nil, plus, partial, full, Desc{})
			}},
			{"ewisemult-sorted", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, EWiseMult(ctx, w, bm, nil, plus, partial, d, Desc{})
			}},
			{"apply", func(ctx *Context) (any, error) {
				w := dense(d)
				return w, Apply(ctx, w, bm, plus, func(x float64) float64 { return 2 * x }, partial, Desc{})
			}},
			{"select", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				return w, SelectVector(ctx, w, nil, func(x float64, _, _ int) bool { return x > 0 }, partial, Desc{})
			}},
			{"assign", func(ctx *Context) (any, error) {
				w := dense(d)
				return w, AssignConstant(ctx, w, bm, nil, 3, Desc{Replace: true})
			}},
			{"reduce", func(ctx *Context) (any, error) {
				return ReduceVector(ctx, PlusMonoid[float64](), partial), nil
			}},
			{"reduce-rows", func(ctx *Context) (any, error) {
				return ReduceRows(ctx, PlusMonoid[float64](), A), nil
			}},
			{"mxm-dot", func(ctx *Context) (any, error) {
				ctx.Kernel = KernelDot
				defer func() { ctx.Kernel = KernelAuto }()
				return MxM(ctx, mask, s, A, B)
			}},
			{"mxm-gustavson", func(ctx *Context) (any, error) {
				return MxM(ctx, nil, s, A, B)
			}},
			{"mxm-diag", func(ctx *Context) (any, error) {
				return MxM(ctx, nil, s, Diag(d), B)
			}},
			{"pattern-minus-fold", func(ctx *Context) (any, error) {
				m, err := PatternMinus(ctx, A, mask)
				if err != nil {
					return nil, err
				}
				return m, FoldMatrix(ctx, plus, m, m.Dup())
			}},
			{"fused-vxm-apply", func(ctx *Context) (any, error) {
				w := NewVector[float64](n, Sorted)
				_, _, err := FusedVxMApply(ctx, w, s, partial, A, func(x float64) float64 { return x / 3 }, Desc{Force: HintPush})
				return w, err
			}},
			{"fused-fold-scale", func(ctx *Context) (any, error) {
				w1, w2 := full.Dup(), NewVector[float64](n, Dense)
				_, _, err := FusedFoldScale(ctx, w1, plus, partial, full, w2, func(a, b float64) float64 { return a * b })
				return w2, err
			}},
			{"fused-vxm-accum", func(ctx *Context) (any, error) {
				w := full.Dup()
				_, _, err := FusedVxMAccum(ctx, w, plus, s, sparse, A, Desc{})
				return w, err
			}},
			{"fused-assign-expand", func(ctx *Context) (any, error) {
				dist := NewVector[float64](n, Dense)
				dist.DenseFill(0)
				f := pb.Dup()
				for level := 1.0; level <= 3; level++ {
					if _, _, err := FusedAssignExpand(ctx, dist, level, f, ab); err != nil {
						return nil, err
					}
				}
				return dist, nil
			}},
		}
		ctxs := map[string]*Context{"static-2": NewSuiteSparseContext(2), "steal-4": NewGaloisBLASContext(4)}
		for _, f := range families {
			want, err := f.run(NewSerialContext())
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, f.name, err)
			}
			for name, ctx := range ctxs {
				got, err := f.run(ctx)
				if err != nil {
					t.Fatalf("n=%d %s on %s: %v", n, f.name, name, err)
				}
				if !slices.Equal(digest(got), digest(want)) {
					t.Errorf("n=%d %s on %s: result differs from serial", n, f.name, name)
				}
			}
		}
	}
}
