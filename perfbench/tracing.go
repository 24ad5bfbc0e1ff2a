package main

import (
	"strings"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/trace"
)

// tileTol bounds the share of the matrix ops' timed regions that no span
// covers: their round spans must tile them (README, "Traced run").
const tileTol = 0.05

// traceAcc accumulates the traced study ops' spans into per-layer totals.
type traceAcc struct {
	capacity []int // per-cell ring capacity per shard, grown in the warm-up pass
	drops    int   // timed ops whose ring overflowed (attribution skipped)
	// tiling asserts that spans tile the matrix ops' timed regions (batch
	// ops of the study workloads; the serve-ingest replay only reports it).
	tiling bool

	ops              int
	self             [nLayers]time.Duration
	lagraphRoundSelf time.Duration
	lagraphSpans     int64 // lagraph round spans, init and extract included
	lagraphRounds    int64 // lagraph rounds proper (Round >= 1)
	kernels          int64
	kernelNNZ        int64
	kernelBytes      int64
	elided           int64
	bails            int64
	decisions        int64
	pullRounds       int64
	regions          int64
	regionTime       time.Duration
	loopTime         time.Duration
	steals           int64

	matrixGap, matrixElapsed time.Duration     // SS/GB ops: time no span covers
	gap, elapsed             time.Duration     // every op
	overhead                 []float64         // wall - Result.Elapsed, ms
	ssspWork                 map[int][]float64 // LS sssp Result.Rounds, per cell
}

func newTraceAcc(cells int) *traceAcc {
	t := &traceAcc{capacity: make([]int, cells), ssspWork: map[int][]float64{}}
	for i := range t.capacity {
		t.capacity[i] = 1 << 12
	}
	return t
}

// add folds one traced op into the totals. It returns false when the
// op's ring dropped spans during the warm-up pass, after growing the
// cell's capacity, so the caller repeats the op.
func (t *traceAcc) add(i int, c cell, tr *trace.Trace, res core.Result, wall time.Duration, timed bool) bool {
	sum := tr.Summary()
	if sum.Dropped > 0 {
		t.capacity[i] *= 4
		if !timed {
			return false
		}
		t.drops++
		return true
	}
	if !timed {
		// Spans spread over the shards round-robin, so a per-shard
		// capacity equal to the op's total span count leaves headroom.
		if n := int(sum.Events); n > t.capacity[i] {
			t.capacity[i] = n
		}
		return true
	}
	evs := tr.Events()
	a := attribute(evs)
	t.ops++
	for l := range a.self {
		t.self[l] += a.self[l]
	}
	t.lagraphRoundSelf += a.lagraphRoundSelf
	for k := range evs {
		ev := &evs[k]
		switch ev.Cat {
		case trace.CatRound:
			if rank(ev) == lLagraph {
				t.lagraphSpans++
				if ev.Round >= 1 {
					t.lagraphRounds++
				}
			}
		case trace.CatKernel:
			t.kernels++
			t.kernelNNZ += ev.NNZIn + ev.NNZOut
			t.kernelBytes += ev.Bytes
		case trace.CatFused:
			t.elided += ev.Bytes
			if strings.HasSuffix(ev.Op, ".bail") {
				t.bails++
			}
		case trace.CatAdapt:
			if strings.HasPrefix(ev.Op, "adapt.direction.") {
				t.decisions++
			}
			if ev.Op == "adapt.direction.pull" {
				t.pullRounds++
			}
		case trace.CatRegion:
			t.regions++
			t.regionTime += ev.Dur
			t.steals += ev.Steals
		case trace.CatLoop:
			t.loopTime += ev.Dur
			t.steals += ev.Steals
		}
	}
	gap := res.Elapsed - a.covered
	if gap < 0 {
		gap = 0
	}
	t.gap += gap
	t.elapsed += res.Elapsed
	if c.sys != core.LS {
		t.matrixGap += gap
		t.matrixElapsed += res.Elapsed
	}
	t.overhead = append(t.overhead, ms(wall-res.Elapsed))
	if c.sys == core.LS && c.app == core.SSSP {
		t.ssspWork[i] = append(t.ssspWork[i], float64(res.Rounds))
	}
	return true
}

// report writes the per-layer study metrics. It returns false when the
// traced run's own assertion fails: every timed op must have kept all its
// spans, and on the matrix side the spans must tile the timed region to
// within tileTol.
func (t *traceAcc) report(v map[string]float64, cells []cell, medians []float64) bool {
	byApp := map[string][]float64{}
	for i, c := range cells {
		k := appMetric(c.sys, c.app)
		byApp[k] = append(byApp[k], medians[i])
	}
	for k, xs := range byApp {
		v[k] = geomean(xs)
	}
	n := float64(t.ops)
	if t.lagraphSpans > 0 {
		v["lagraph.round_self_us"] = float64(t.lagraphRoundSelf.Microseconds()) / float64(t.lagraphSpans)
	}
	v["lagraph.rounds_per_op"] = float64(t.lagraphRounds) / n
	v["grb.kernel_self_ms_per_op"] = ms(t.self[lGrb]) / n
	v["grb.kernels_per_op"] = float64(t.kernels) / n
	v["grb.mb_materialized_per_op"] = float64(t.kernelBytes) / 1e6 / n
	if t.self[lGrb] > 0 {
		v["grb.knnz_per_ms"] = float64(t.kernelNNZ) / 1e3 / ms(t.self[lGrb])
	}
	v["fuse.mb_elided_per_op"] = float64(t.elided) / 1e6 / n
	v["fuse.bails_per_op"] = float64(t.bails) / n
	v["adapt.decisions_per_op"] = float64(t.decisions) / n
	v["adapt.pull_rounds_per_op"] = float64(t.pullRounds) / n
	v["galois.regions_per_op"] = float64(t.regions) / n
	if t.regions > 0 {
		v["galois.region_us"] = float64(t.regionTime.Microseconds()) / float64(t.regions)
	}
	v["galois.steals_per_op"] = float64(t.steals) / n
	v["galois.loop_ms_per_op"] = ms(t.loopTime) / n
	var work []float64
	for _, xs := range t.ssspWork {
		work = append(work, median(xs))
	}
	v["lonestar.sssp_work_per_op"] = geomean(work)
	v["core.run_overhead_ms"] = median(t.overhead)
	if t.elapsed > 0 {
		v["trace.untraced_pct"] = 100 * float64(t.gap) / float64(t.elapsed)
	}
	ok := true
	if t.drops > 0 {
		logf("traced run: %d ops overflowed their span ring; their layers are not attributed", t.drops)
		ok = false
	}
	if t.matrixElapsed > 0 {
		share := float64(t.matrixGap) / float64(t.matrixElapsed)
		logf("traced run: spans cover %.2f%% of the matrix ops' timed regions", 100*(1-share))
		if t.tiling && share > tileTol {
			logf("traced run: layer self times leave %.2f%% of the timed regions unattributed (tolerance %.0f%%)", 100*share, 100*tileTol)
			ok = false
		}
	}
	return ok
}
