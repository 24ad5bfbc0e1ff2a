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
// sssp 135.2, pr 920.4, cc 292.1 per round) and below those of kernels
// that build a mask bitmap per call, two n-sized accumulator arrays per
// worker per push and a fresh entry list per pushed block (bfs 58.3,
// sssp 185.2, pr 1050.6). cc uses none of those, so its bound only guards
// against a rise of four allocations per round. A pr round is
// dominated by the rows of the materialized contribution matrix T = D*A,
// and a cc round by the per-block entry lists of its sparse outputs,
// which both formulations allocate by design.

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
	}), 960)
	check("cc", allocsPerRound(t, func() int {
		_, r, err := CCFastSV(ctx, as)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}), 296)
}
