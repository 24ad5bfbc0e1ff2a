package grb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The push accumulators live in the run's workspace and are reused by every
// spmvPush of the run, whatever its element type. These tests hold the
// reuse to the fresh-accumulator answer across many takes, a switch of
// element type on the same marks, and both read-out paths of take (bitmap
// scan and sort). There is no generation counter to wrap: take clears the
// bits it read, so a reused accumulator starts every block empty.

// accOracle accumulates adds in a map and returns them sorted by index.
func accOracle(adds [][2]int) entryList[int64] {
	sum := map[int32]int64{}
	for _, a := range adds {
		sum[int32(a[0])] += int64(a[1])
	}
	var out entryList[int64]
	for j := range sum {
		out.idx = append(out.idx, j)
	}
	slices.Sort(out.idx)
	for _, j := range out.idx {
		out.vals = append(out.vals, sum[j])
	}
	return out
}

func sameEntries[T comparable](got, want entryList[T]) error {
	if fmt.Sprint(got.idx) != fmt.Sprint(want.idx) || fmt.Sprint(got.vals) != fmt.Sprint(want.vals) {
		return fmt.Errorf("took %v %v, want %v %v", got.idx, got.vals, want.idx, want.vals)
	}
	return nil
}

func TestPushAccReuse(t *testing.T) {
	const n = 1 << 16
	plus := func(a, b int64) int64 { return a + b }
	r := rand.New(rand.NewSource(1))
	m := new(accMarks)
	paths := map[bool]int{}
	for round := 0; round < 400; round++ {
		// Alternate dense touched sets (read out of the bitmap) and a few
		// positions spread over all n (sorted).
		k, span := 1+r.Intn(300), n
		if round%2 == 0 {
			span = k + r.Intn(k)
		} else {
			k = 1 + r.Intn(3)
		}
		lo := r.Intn(n - span + 1)
		var adds [][2]int
		for x := 0; x < k; x++ {
			adds = append(adds, [2]int{lo + r.Intn(span), r.Intn(100) - 50})
		}
		a := accFor[int64](m, n)
		for _, ad := range adds {
			a.add(int32(ad[0]), int64(ad[1]), plus)
		}
		words := span / 64
		paths[words < scanWords*len(a.touch)]++
		if err := sameEntries(a.take(), accOracle(adds)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if c := m.seen.count(); c != 0 || len(m.touch) != 0 {
			t.Fatalf("round %d: take left %d marks and %d touched", round, c, len(m.touch))
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("read-out paths exercised: %v, want both", paths)
	}
}

// TestPushAccSharedAcrossTypes: one workspace serves SpMVs of different
// element types in turn, each matching a call on a fresh workspace.
func TestPushAccSharedAcrossTypes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n = 300
	af := randMatrix(r, n, n, 6*n, randFloat)
	aw := randMatrix(r, n, n, 6*n, randWeight)
	ab := randMatrix(r, n, n, 6*n, randBool)
	uf := randVector(r, n, 40, Sorted, randFloat)
	uw := randVector(r, n, 40, List, randWeight)
	ub := randVector(r, n, 40, Bitmap, randBool)
	for name, ctx := range denseOracleContexts(0) {
		shared := ctx.acquire()
		for round := 0; round < 3; round++ {
			fresh := &workspace{}
			if err := sameEntries(spmvPush(ctx, shared, nil, PlusTimes[float64](), uf, af, true),
				spmvPush(ctx, fresh, nil, PlusTimes[float64](), uf, af, true)); err != nil {
				t.Fatalf("%s float64: %v", name, err)
			}
			if err := sameEntries(spmvPush(ctx, shared, nil, MinPlus[uint32](), uw, aw, false),
				spmvPush(ctx, fresh, nil, MinPlus[uint32](), uw, aw, false)); err != nil {
				t.Fatalf("%s uint32: %v", name, err)
			}
			if err := sameEntries(spmvPush(ctx, shared, nil, LorLand(), ub, ab, true),
				spmvPush(ctx, fresh, nil, LorLand(), ub, ab, true)); err != nil {
				t.Fatalf("%s bool: %v", name, err)
			}
		}
		ctx.release(shared)
	}
}

// BenchmarkPushAccTake times one block's adds and take for k touched
// positions spread at random over a span of words-per-entry × k bitmap
// words, the ratio take compares with scanWords. Each op costs the same k
// adds on either read-out path, so the path's share is the difference
// between two builds with scanWords set to 0 (always sort) and to a huge
// value (always scan); EXPERIMENTS.md records where they cross.
func BenchmarkPushAccTake(b *testing.B) {
	plus := func(x, y float64) float64 { return x + y }
	for _, k := range []int{32, 512} {
		for _, ratio := range []int{1, 4, 6, 8, 12, 16, 64} {
			span := ratio * k * 64
			r := rand.New(rand.NewSource(int64(k * ratio)))
			pos := make([]int32, k)
			for i, j := range r.Perm(span)[:k] {
				pos[i] = int32(j)
			}
			m := new(accMarks)
			b.Run(fmt.Sprintf("k=%d/words-per-entry=%d", k, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.idx = m.idx[:0]
					a := accFor[float64](m, span)
					for _, j := range pos {
						a.add(j, 1, plus)
					}
					a.take()
				}
			})
		}
	}
}
