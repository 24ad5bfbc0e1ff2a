package lagraph

import (
	"testing"

	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
)

// The eager rounds are gated on allocations, a deterministic column: at one
// worker, testing.AllocsPerRun counts the same allocations every run. Each
// app runs once on a small road grid and its allocations are divided by its
// rounds (setup included, so a round's share of it too).
//
// The bounds sit a few allocations above this tree's counts (bfs 40.6,
// fused bfs 33.8, sssp 135.2, pr 94.4, fused pr 77.3, cc 292.1, ktruss
// 65.7 per round) and below those of kernels that build a mask bitmap per
// call, two n-sized accumulator arrays per worker per push and a fresh
// entry list per pushed block (bfs 58.3, sssp 185.2, pr 1050.6), or that
// stage every product row in slices of its own (pr 920.3, ktruss 741.3)
// and every fused pull result in an entry list (fused pr 319.3). cc uses
// none of those, so its bound only guards against a rise of four
// allocations per round. A pr round is left with what the formulation
// allocates by design: the contribution matrix T = D*A, written straight
// into its CSR arrays, the diagonal D and the push VxM's output; a cc
// round, the per-block entry lists of its sparse outputs. Fused bfs reads
// its frontier in place and marks the next one in the workspace's scratch
// bitmap (42.6 per round with a fresh n-bit bitmap and a frontier copy
// per round). ktruss runs on a small RMAT graph instead, since the grid
// has no triangles; its rounds after the first update the supports from
// the removed edges (1763.7 per round when every round ran the full
// product).

// allocsPerRound runs run under testing.AllocsPerRun and divides by the
// rounds it reports.
func allocsPerRound(t *testing.T, run func() int) float64 {
	t.Helper()
	var rounds int
	allocs := testing.AllocsPerRun(3, func() { rounds = run() })
	t.Logf("%d rounds, %.0f allocations", rounds, allocs)
	return allocs / float64(rounds)
}

func TestEagerRoundAllocs(t *testing.T) {
	g := gen.Grid(12, 12, 2, true, 100, 3)
	ctx := grb.NewGaloisBLASContext(1)
	ab := grb.BoolMatrixFromGraph(g)
	aw := grb.WeightMatrixFromGraph(g)
	af := grb.MatrixFromGraph(g, func(uint32) float64 { return 1 })
	af.EnsureCSC()
	as := grb.MatrixFromGraph(g.Symmetrize(), func(uint32) uint32 { return 1 })
	ak := grb.MatrixFromGraph(gen.RMAT(8, 16, 0.57, 0.19, 0.19, false, 1, 7).Symmetrize(), func(uint32) int64 { return 1 })
	ak.EnsureCSC()
	check := func(name string, perRound, max float64) {
		t.Helper()
		t.Logf("%s: %.1f allocations per round", name, perRound)
		if perRound > max {
			t.Errorf("%s: %.1f allocations per round, want <= %.0f", name, perRound, max)
		}
	}
	check("bfs", allocsPerRound(t, func() int {
		_, r, err := BFS(ctx, ab, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}), 45)
	check("fused bfs", allocsPerRound(t, func() int {
		_, r, err := FusedBFS(ctx, ab, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}), 36)
	check("sssp", allocsPerRound(t, func() int {
		res, err := SSSP(ctx, aw, 0, uint32(50))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}), 145)
	check("pr", allocsPerRound(t, func() int {
		opt := DefaultPageRankOptions()
		if _, err := PageRank(ctx, af, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Iterations
	}), 98)
	check("fused pr", allocsPerRound(t, func() int {
		opt := DefaultPageRankOptions()
		if _, err := FusedPageRank(ctx, af, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Iterations
	}), 80)
	check("cc", allocsPerRound(t, func() int {
		_, r, err := CCFastSV(ctx, as)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}), 296)
	check("ktruss", allocsPerRound(t, func() int {
		res, err := KTruss(ctx, ak, 4)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}), 69)
}
