package core

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"graphstudy/internal/adapt"
	"graphstudy/internal/gen"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/lonestar"
	"graphstudy/internal/trace"
)

// RunSpec describes one measurement: a workload on a system on an input.
type RunSpec struct {
	App     App
	System  System
	Variant Variant
	Input   *gen.Input
	Scale   gen.Scale
	// Threads is the worker count (<= 0 uses the configured default).
	Threads int
	// Timeout bounds the run; zero means unbounded. The study used 2 hours
	// at full scale; the harness defaults to a scaled-down bound.
	Timeout time.Duration
	// Trace, when non-nil, is installed for the duration of the timed
	// region: every kernel, parallel region, and algorithm round records a
	// span into it, and Result.Trace carries the aggregated summary.
	// Installation is global (like perfmodel), so traced runs must not
	// execute concurrently with other runs.
	Trace *trace.Trace
	// Adapt overrides the adaptive variant's decision thresholds; nil uses
	// adapt.DefaultConfig(). The metamorphic equivalence suite injects
	// forced decisions through it. Ignored by every other variant.
	Adapt *adapt.Config
	// Mutation, for the incremental variant, identifies the mutation
	// lineage the input snapshot belongs to and resolves epoch-to-epoch
	// deltas; nil runs from scratch without keeping state. Ignored by every
	// other variant.
	Mutation *MutationView
}

// adaptConfig resolves the spec's adaptive config.
func adaptConfig(spec RunSpec) adapt.Config {
	if spec.Adapt != nil {
		return *spec.Adapt
	}
	return adapt.DefaultConfig()
}

// Result is the outcome of one run.
type Result struct {
	Spec    RunSpec
	Outcome Outcome
	Err     error
	// Elapsed is the timed region only (preprocessing excluded).
	Elapsed time.Duration
	// Value summarizes the answer for cross-system comparison (e.g. the
	// triangle count, component count, distance checksum).
	Value string
	// Check is a numeric digest of the answer; equal answers have equal
	// digests (used by the cross-system consistency tests).
	Check uint64
	// AllocBytes is the heap allocated during the timed region — the
	// harness's stand-in for Table III's max resident set size, and a
	// direct measure of the materialization the study discusses. It is a
	// process-wide delta, so concurrent runs' allocations count too.
	AllocBytes uint64
	// Rounds reports algorithm rounds where meaningful (bfs levels, cc
	// hook/shortcut rounds, ktruss peels, sssp light-relax rounds).
	Rounds int
	// Trace is the per-operator summary of the run when Spec.Trace was set.
	Trace *trace.Summary
}

// Run executes one measurement. Preparation (generation, and the
// symmetrized and matrix forms the run reads) happens before the clock
// starts. It is a thin shim over RunCtx for callers that have no context
// of their own.
func Run(spec RunSpec) Result {
	return RunCtx(context.Background(), spec)
}

// heapAllocs reads the cumulative bytes allocated to the heap. Unlike
// runtime.ReadMemStats it does not stop the world, so bracketing every run
// with it does not pause the runs beside it.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// RunCtx executes one measurement under a caller-supplied context. The
// spec's Timeout (when positive) is layered on top as a deadline, so a
// server can propagate per-request deadlines while batch callers keep the
// old Timeout semantics. Cancellation is cooperative: the round loops of
// both APIs observe a stop flag between rounds, and a canceled or expired
// context flips it, producing a TO outcome rather than an abandoned
// goroutine.
func RunCtx(ctx context.Context, spec RunSpec) Result {
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}

	p := Prepare(spec.Input, spec.Scale)
	p.build(formsFor(spec.App, spec.System, spec.Variant, spec.Input.BigDelta))

	var stop atomic.Bool
	if ctx.Done() != nil {
		// Synchronous pre-check: an already-expired deadline must stop the
		// run deterministically, not race with the watcher goroutine.
		if ctx.Err() != nil {
			stop.Store(true)
		} else {
			watchDone := make(chan struct{})
			defer close(watchDone)
			//lint:ignore gostmt context-cancellation watcher: one goroutine per run, joined via watchDone on every exit path
			go func() {
				select {
				case <-ctx.Done():
					stop.Store(true)
				case <-watchDone:
				}
			}()
		}
	}

	alloc0 := heapAllocs()
	if spec.Trace != nil {
		trace.Install(spec.Trace)
	}
	start := time.Now()
	value, check, rounds, err := dispatch(p, spec, &stop)
	elapsed := time.Since(start)
	if spec.Trace != nil {
		trace.Install(nil)
	}
	alloc1 := heapAllocs()

	res := Result{
		Spec:       spec,
		Elapsed:    elapsed,
		Value:      value,
		Check:      check,
		Rounds:     rounds,
		AllocBytes: alloc1 - alloc0,
	}
	if spec.Trace != nil {
		res.Trace = spec.Trace.Summary()
	}
	switch {
	case err == lagraph.ErrTimeout || err == lonestar.ErrTimeout:
		res.Outcome = TO
	case err != nil:
		res.Outcome = ERR
		res.Err = err
	default:
		res.Outcome = OK
	}
	return res
}

// grbContext builds the LAGraph-side context for a system.
func grbContext(sys System, threads int, stop *atomic.Bool) (*grb.Context, error) {
	var ctx *grb.Context
	switch sys {
	case SS:
		ctx = grb.NewSuiteSparseContext(threads)
	case GB:
		ctx = grb.NewGaloisBLASContext(threads)
	default:
		return nil, fmt.Errorf("core: system %v has no GraphBLAS context", sys)
	}
	ctx.Stop = stop
	return ctx, nil
}

// dispatch routes to the right algorithm implementation.
func dispatch(p *Prepared, spec RunSpec, stop *atomic.Bool) (value string, check uint64, rounds int, err error) {
	lsOpt := lonestar.Options{Threads: spec.Threads, Stop: stop}
	switch spec.App {
	case BFS:
		if spec.System == LS {
			dist, r, err := lonestar.BFS(p.G, p.Src, lsOpt)
			if err != nil {
				return "", 0, r, err
			}
			return summarizeLevels(dist), checksum32(dist), r, nil
		}
		ctx, err := grbContext(spec.System, spec.Threads, stop)
		if err != nil {
			return "", 0, 0, err
		}
		if spec.Variant == VIncremental {
			levels, r, err := runIncrementalBFS(ctx, p, spec)
			if err != nil {
				return "", 0, r, err
			}
			return summarizeLevels(levels), checksum32(levels), r, nil
		}
		bfs := lagraph.BFS
		switch spec.Variant {
		case VFused:
			bfs = lagraph.FusedBFS
		case VAdaptive:
			cfg := adaptConfig(spec)
			bfs = func(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
				dist, rounds, _, err := lagraph.AdaptiveBFS(ctx, A, src, cfg)
				return dist, rounds, err
			}
		}
		dist, r, err := bfs(ctx, p.ABool(), int(p.Src))
		if err != nil {
			return "", 0, r, err
		}
		levels := lagraph.BFSLevels(dist)
		return summarizeLevels(levels), checksum32(levels), r, nil

	case CC:
		switch {
		case spec.System == LS && spec.Variant == VLSSV:
			labels, r, err := lonestar.CCShiloachVishkin(p.Sym(), lsOpt)
			if err != nil {
				return "", 0, r, err
			}
			return summarizeComponents(labels), componentCheck(labels), r, nil
		case spec.System == LS:
			labels, err := lonestar.CCAfforest(p.Sym(), lsOpt)
			if err != nil {
				return "", 0, 0, err
			}
			return summarizeComponents(labels), componentCheck(labels), 0, nil
		default:
			ctx, err := grbContext(spec.System, spec.Threads, stop)
			if err != nil {
				return "", 0, 0, err
			}
			if spec.Variant == VIncremental {
				labels, r, err := runIncrementalCC(ctx, p, spec)
				if err != nil {
					return "", 0, r, err
				}
				return summarizeComponents(labels), componentCheck(labels), r, nil
			}
			fastsv := lagraph.CCFastSV
			if spec.Variant == VAdaptive {
				cfg := adaptConfig(spec)
				fastsv = func(ctx *grb.Context, A *grb.Matrix[uint32]) (*grb.Vector[uint32], int, error) {
					return lagraph.AdaptiveCC(ctx, A, cfg)
				}
			}
			f, r, err := fastsv(ctx, p.ASymU32())
			if err != nil {
				return "", 0, r, err
			}
			labels := lagraph.Labels(f)
			return summarizeComponents(labels), componentCheck(labels), r, nil
		}

	case KTruss:
		k := p.In.KTrussK()
		if spec.System == LS {
			res, err := lonestar.KTruss(p.Sym(), k, lsOpt)
			if err != nil {
				return "", 0, res.Rounds, err
			}
			return fmt.Sprintf("edges=%d", res.Edges), uint64(res.Edges), res.Rounds, nil
		}
		ctx, err := grbContext(spec.System, spec.Threads, stop)
		if err != nil {
			return "", 0, 0, err
		}
		res, err := lagraph.KTruss(ctx, p.ASymInt(), k)
		if err != nil {
			return "", 0, res.Rounds, err
		}
		return fmt.Sprintf("edges=%d", res.Edges), uint64(res.Edges), res.Rounds, nil

	case PR:
		if spec.System == LS {
			o := lonestar.DefaultPageRankOptions()
			o.Options = lsOpt
			ranks, err := lonestar.PageRankResidual(p.G, o, spec.Variant == VLSSoA)
			if err != nil {
				return "", 0, 0, err
			}
			return summarizeRanks(ranks), rankCheck(ranks), o.Iterations, nil
		}
		ctx, err := grbContext(spec.System, spec.Threads, stop)
		if err != nil {
			return "", 0, 0, err
		}
		if spec.Variant == VIncremental {
			pr, r, err := runIncrementalPR(ctx, p, spec)
			if err != nil {
				return "", 0, r, err
			}
			ranks := lagraph.Ranks(pr)
			return summarizeRanks(ranks), rankCheck(ranks), r, nil
		}
		opt := lagraph.DefaultPageRankOptions()
		var r *grb.Vector[float64]
		switch spec.Variant {
		case VGBRes:
			r, err = lagraph.PageRankResidual(ctx, p.AFloat(), opt)
		case VFused:
			// The fused DAG port of the residual formulation; its digest
			// matches gb-res bit for bit (the fused differential suite).
			r, err = lagraph.FusedPageRank(ctx, p.AFloat(), opt)
		case VAdaptive:
			// The adaptive port of the same formulation; digest-compatible
			// with gb-res under the quantized rank check.
			r, err = lagraph.AdaptivePageRank(ctx, p.AFloat(), opt, adaptConfig(spec))
		default:
			r, err = lagraph.PageRank(ctx, p.AFloat(), opt)
		}
		if err != nil {
			return "", 0, 0, err
		}
		ranks := lagraph.Ranks(r)
		return summarizeRanks(ranks), rankCheck(ranks), opt.Iterations, nil

	case SSSP:
		delta := p.In.Delta()
		if spec.System == LS {
			o := lonestar.DefaultSSSPOptions()
			o.Options = lsOpt
			o.Delta = delta
			o.EdgeTiling = spec.Variant != VLSNoTile
			dist, applied, err := lonestar.SSSP(p.G, p.Src, o)
			if err != nil {
				return "", 0, int(applied), err
			}
			return summarizeDists(dist), checksum64(dist), int(applied), nil
		}
		ctx, err := grbContext(spec.System, spec.Threads, stop)
		if err != nil {
			return "", 0, 0, err
		}
		sssp32, sssp64 := lagraph.SSSP[uint32], lagraph.SSSP[uint64]
		switch spec.Variant {
		case VFused:
			sssp32, sssp64 = lagraph.FusedSSSP[uint32], lagraph.FusedSSSP[uint64]
		case VAdaptive:
			cfg := adaptConfig(spec)
			sssp32 = func(ctx *grb.Context, A *grb.Matrix[uint32], src int, delta uint32) (lagraph.SSSPResult[uint32], error) {
				return lagraph.AdaptiveSSSP(ctx, A, src, delta, cfg)
			}
			sssp64 = func(ctx *grb.Context, A *grb.Matrix[uint64], src int, delta uint64) (lagraph.SSSPResult[uint64], error) {
				return lagraph.AdaptiveSSSP(ctx, A, src, delta, cfg)
			}
		}
		// The study switches to 64-bit distances for eukarya only.
		if p.In.BigDelta {
			res, err := sssp64(ctx, p.AW64(), int(p.Src), uint64(delta))
			if err != nil {
				return "", 0, res.Rounds, err
			}
			d := lagraph.Distances(res.Dist)
			return summarizeDists(d), checksum64(d), res.Rounds, nil
		}
		res, err := sssp32(ctx, p.AW32(), int(p.Src), delta)
		if err != nil {
			return "", 0, res.Rounds, err
		}
		d := lagraph.Distances(res.Dist)
		return summarizeDists(d), checksum64(d), res.Rounds, nil

	case TC:
		if spec.System == LS {
			count, err := lonestar.TriangleCount(p.SymSorted(), lsOpt)
			if err != nil {
				return "", 0, 0, err
			}
			return fmt.Sprintf("triangles=%d", count), uint64(count), 0, nil
		}
		ctx, err := grbContext(spec.System, spec.Threads, stop)
		if err != nil {
			return "", 0, 0, err
		}
		var variant lagraph.TCVariant
		var m *grb.Matrix[int64]
		switch spec.Variant {
		case VGBSort:
			variant, m = lagraph.TCSorted, p.ASrtInt()
		case VGBLL:
			variant, m = lagraph.TCListing, p.ASrtInt()
		default:
			variant, m = lagraph.TCSandiaDot, p.ASymInt()
		}
		count, err := lagraph.TriangleCount(ctx, m, variant)
		if err != nil {
			return "", 0, 0, err
		}
		return fmt.Sprintf("triangles=%d", count), uint64(count), 0, nil
	}
	return "", 0, 0, fmt.Errorf("core: unknown app %v", spec.App)
}

// summarizeLevels reports reachable count and max level.
func summarizeLevels(dist []uint32) string {
	reached, maxL := 0, uint32(0)
	for _, d := range dist {
		if d != ^uint32(0) {
			reached++
			if d > maxL {
				maxL = d
			}
		}
	}
	return fmt.Sprintf("reached=%d maxlevel=%d", reached, maxL)
}

func summarizeDists(dist []uint64) string {
	reached := 0
	for _, d := range dist {
		if d != ^uint64(0) {
			reached++
		}
	}
	return fmt.Sprintf("reached=%d", reached)
}

func summarizeComponents(labels []uint32) string {
	seen := map[uint32]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return fmt.Sprintf("components=%d", len(seen))
}

func summarizeRanks(r []float64) string {
	var sum, max float64
	for _, v := range r {
		sum += v
		if v > max {
			max = v
		}
	}
	return fmt.Sprintf("sum=%.6f max=%.6f", sum, max)
}

// checksum32 hashes a level array (FNV-style) so equal answers compare equal.
func checksum32(a []uint32) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range a {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func checksum64(a []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range a {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// componentCheck digests a partition canonically (label = min member).
func componentCheck(labels []uint32) uint64 {
	canon := map[uint32]uint32{}
	for i, l := range labels {
		if m, ok := canon[l]; !ok || uint32(i) < m {
			canon[l] = uint32(i)
		}
	}
	out := make([]uint32, len(labels))
	for i, l := range labels {
		out[i] = canon[l]
	}
	return checksum32(out)
}

// rankCheck digests ranks at reduced precision so schedule-dependent float
// rounding does not break cross-system equality. Quantization rounds to
// nearest rather than truncating: analytically exact ranks (0.125 on a
// complete graph) sit precisely on a truncation boundary, and summation
// order decides which side each system lands on.
func rankCheck(r []float64) uint64 {
	out := make([]uint64, len(r))
	for i, v := range r {
		out[i] = uint64(math.Round(v * 1e7))
	}
	return checksum64(out)
}
