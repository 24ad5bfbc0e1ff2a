// Trace-invariant tests: the operator-level traces must tell the paper's
// story, not just be well-formed. Round counts, bytes materialized, and the
// operator mix of the two APIs are asserted against the claims of sections
// IV-V (the matrix API executes more synchronous rounds, materializes
// intermediate vectors/matrices, and pays for densification when pulling).
package verify_test

import (
	"testing"

	"graphstudy/internal/adapt"
	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/trace"
)

// tracedRun executes one spec with a fresh trace attached and returns the
// result (whose Trace field carries the summary).
func tracedRun(t *testing.T, app core.App, sys core.System, v core.Variant, gname string) core.Result {
	t.Helper()
	in, err := gen.ByName(gname)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.RunSpec{
		App: app, System: sys, Variant: v, Input: in,
		Scale: gen.ScaleTest, Threads: 2, Trace: trace.New(),
	}
	r := core.Run(spec)
	if r.Outcome != core.OK {
		t.Fatalf("%v/%v on %s: outcome %v err %v", app, sys, gname, r.Outcome, r.Err)
	}
	if r.Trace == nil {
		t.Fatalf("%v/%v on %s: no trace summary on result", app, sys, gname)
	}
	return r
}

// TestMatrixRoundsExceedGraphRounds: the matrix API's BFS runs one more
// synchronous round than the graph API's — the final VxM that discovers an
// empty frontier. Lonestar stops as soon as its bag drains (section IV-B).
func TestMatrixRoundsExceedGraphRounds(t *testing.T) {
	for _, gname := range []string{"rmat22", "road-USA"} {
		ss := tracedRun(t, core.BFS, core.SS, core.VDefault, gname)
		ls := tracedRun(t, core.BFS, core.LS, core.VDefault, gname)
		if ss.Trace.Rounds <= ls.Trace.Rounds {
			t.Errorf("%s: matrix bfs rounds %d not strictly above graph bfs rounds %d",
				gname, ss.Trace.Rounds, ls.Trace.Rounds)
		}
		// The traced round count is the harness's Result.Rounds: one source
		// of truth, two reporting paths.
		if ss.Trace.Rounds != ss.Rounds || ls.Trace.Rounds != ls.Rounds {
			t.Errorf("%s: trace rounds (%d, %d) disagree with Result.Rounds (%d, %d)",
				gname, ss.Trace.Rounds, ls.Trace.Rounds, ss.Rounds, ls.Rounds)
		}
	}
}

// TestPageRankRoundsMatchPaper: pr runs for exactly 10 iterations on every
// system (the study's fixed-iteration setup), visible as 10 round spans.
func TestPageRankRoundsMatchPaper(t *testing.T) {
	for _, sys := range []core.System{core.SS, core.GB, core.LS} {
		r := tracedRun(t, core.PR, sys, core.VDefault, "rmat22")
		if r.Trace.Rounds != 10 {
			t.Errorf("pr/%v: %d traced rounds, want 10", sys, r.Trace.Rounds)
		}
	}
}

// TestPRMatrixMaterializesMore: GraphBLAS pagerank materializes the scaled
// matrix product every iteration (an MxM per round); Lonestar's fused
// residual loop materializes nothing. The traces must show it (section V-A).
func TestPRMatrixMaterializesMore(t *testing.T) {
	gb := tracedRun(t, core.PR, core.GB, core.VDefault, "rmat22")
	ls := tracedRun(t, core.PR, core.LS, core.VDefault, "rmat22")
	if gb.Trace.Bytes <= 4*ls.Trace.Bytes {
		t.Errorf("gb pr bytes %d not clearly above ls pr bytes %d", gb.Trace.Bytes, ls.Trace.Bytes)
	}
	if st := gb.Trace.Find(trace.CatKernel, "grb.MxM.diag"); st == nil || st.Count < 10 {
		t.Errorf("gb pr trace missing the per-iteration MxM spans: %+v", st)
	}
}

// TestPullDensifiesMoreThanPushPull: BFS forced to pull every round with a
// sparse frontier densifies a private copy of the frontier each round; the
// free-running direction-optimized engine densifies only on the few dense
// rounds. The grb.Convert.dense spans carry the cost.
func TestPullDensifiesMoreThanPushPull(t *testing.T) {
	in, err := gen.ByName("rmat22")
	if err != nil {
		t.Fatal(err)
	}
	p := core.Prepare(in, gen.ScaleTest)
	ctx := grb.NewSuiteSparseContext(2)
	src := int(p.Src)

	densifyBytes := func(cfg adapt.Config) (int64, []uint32) {
		tr := trace.New()
		trace.Install(tr)
		defer trace.Install(nil)
		dist, _, _, err := lagraph.AdaptiveBFS(ctx, p.ABool(), src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		levels := lagraph.BFSLevels(dist)
		st := tr.Summary().Find(trace.CatKernel, "grb.Convert.dense")
		if st == nil {
			return 0, levels
		}
		return st.Bytes, levels
	}

	pull, a := densifyBytes(adapt.DefaultConfig().Force(adapt.Pull, grb.List))
	pp, b := densifyBytes(adapt.DefaultConfig())
	t.Logf("densified bytes: forced pull %d, free-running %d", pull, pp)
	if pull <= pp {
		t.Errorf("pure-pull bfs densified %d bytes, push-pull %d; pull must pay more", pull, pp)
	}
	// Both strategies must still agree on the answer.
	if len(a) != len(b) {
		t.Fatalf("level vector lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("levels diverge at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRoundSpansTileWallTime is the acceptance criterion: on a traced
// pagerank run, the round spans (init + iterations + extract) must account
// for the timed region — their sum within 5% of the measured wall time.
// Scheduling noise can perturb a single short run, so the best of a few
// attempts must pass.
func TestRoundSpansTileWallTime(t *testing.T) {
	const attempts = 5
	var lastGap float64
	for i := 0; i < attempts; i++ {
		r := tracedRun(t, core.PR, core.SS, core.VDefault, "rmat22")
		total := r.Trace.RoundTotal
		gap := float64(r.Elapsed-total) / float64(r.Elapsed)
		if gap < 0 {
			gap = -gap
		}
		if gap <= 0.05 {
			return
		}
		lastGap = gap
	}
	t.Errorf("round spans never summed to within 5%% of wall time in %d attempts (last gap %.1f%%)",
		attempts, lastGap*100)
}

// TestBFSOperatorMix: the matrix BFS trace must show the paper's operator
// structure — one VxM per round plus the assign that commits the frontier's
// levels, with frontier sizes threaded through the span tags.
func TestBFSOperatorMix(t *testing.T) {
	r := tracedRun(t, core.BFS, core.SS, core.VDefault, "rmat22")
	s := r.Trace
	var vxm int64
	for _, op := range []string{"grb.VxM.push", "grb.VxM.pull"} {
		if st := s.Find(trace.CatKernel, op); st != nil {
			vxm += st.Count
		}
	}
	// One VxM per round except the last, which discovers the empty frontier
	// during the termination check and never multiplies.
	if vxm != int64(s.Rounds)-1 {
		t.Errorf("bfs trace has %d VxM spans for %d rounds; want exactly rounds-1", vxm, s.Rounds)
	}
	if st := s.Find(trace.CatKernel, "grb.AssignConstant"); st == nil {
		t.Error("bfs trace missing grb.AssignConstant spans")
	}
	if st := s.Find(trace.CatRound, "lagraph.bfs.round"); st == nil || st.NNZIn == 0 {
		t.Errorf("bfs round spans missing frontier-size tags: %+v", st)
	}
	if s.CatTotal(trace.CatKernel) == 0 {
		t.Error("bfs trace records no kernel time")
	}
	if s.CatTotal(trace.CatKernel) > s.CatTotal(trace.CatRound) {
		t.Errorf("kernel time %v exceeds enclosing round time %v",
			s.CatTotal(trace.CatKernel), s.CatTotal(trace.CatRound))
	}
}

// TestEagerColumnStaysEager: eager and fused BFS, residual pagerank, and
// delta-stepping sssp share one round loop, so a runner mix-up would
// silently fuse the paper's matrix-API column. Eager traces (the SS/GB
// default and gb-res variants) must carry no fused-category span at all;
// fused traces must show the planner at work, at least one fuse.plan span
// per round.
func TestEagerColumnStaysEager(t *testing.T) {
	for _, gname := range []string{"rmat22", "road-USA-W"} {
		for _, app := range []core.App{core.BFS, core.PR, core.SSSP} {
			for _, sys := range []core.System{core.SS, core.GB} {
				for _, v := range []core.Variant{core.VDefault, core.VGBRes} {
					if !core.ValidVariant(app, sys, v) {
						continue
					}
					r := tracedRun(t, app, sys, v, gname)
					for _, st := range r.Trace.Ops {
						if st.Cat == trace.CatFused {
							t.Errorf("%s %v/%v%s: eager trace has fused span %s x%d",
								gname, app, sys, v, st.Op, st.Count)
						}
					}
				}
				r := tracedRun(t, app, sys, core.VFused, gname)
				st := r.Trace.Find(trace.CatFused, "fuse.plan")
				if st == nil || st.Count < int64(r.Rounds) {
					t.Errorf("%s %v/%v%s: fuse.plan spans %+v for %d rounds; want at least one per round",
						gname, app, sys, core.VFused, st, r.Rounds)
				}
			}
		}
	}
}
