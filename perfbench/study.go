package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/trace"
)

// threads is the worker count of every batch run: the host has two vCPUs.
const threads = 2

// matrixGraphs are study-matrix's inputs: a road grid with ~410 BFS levels
// (hundreds of rounds of tiny kernels) and an RMAT graph where a few large
// kernels dominate (README, "Inputs", says why it is scale 11).
var matrixGraphs = []graphSpec{
	{name: "road", road: true, rows: 52, subdiv: 4},
	{name: "rmat", rmatScale: 11},
}

// graphGraphs are study-graph's inputs: a 4x larger grid, and a 2x larger
// RMAT graph (the serial ktruss reference grows ~4x per RMAT scale step
// and already takes ~7 s at scale 12).
var graphGraphs = []graphSpec{
	{name: "road-l", road: true, rows: 104, subdiv: 4},
	{name: "rmat-l", rmatScale: 12},
}

// cell is one operation class of a study workload: an app on a system
// (and variant) on one input.
type cell struct {
	x       *input
	app     core.App
	sys     core.System
	variant core.Variant
}

func (c cell) name() string {
	return c.x.spec.name + "/" + c.app.String() + "/" + core.Label(c.sys, c.variant)
}

func (c cell) spec() core.RunSpec {
	return core.RunSpec{App: c.app, System: c.sys, Variant: c.variant, Input: c.x.in, Scale: scale, Threads: threads}
}

// residual reports whether the cell computes pagerank in the residual
// formulation (Lonestar, gb-res, and the fused and adaptive ports of it).
// It is unnormalised, so it has no digest-exact serial reference and is
// checked against properties instead.
func (c cell) residual() bool {
	return c.app == core.PR && (c.sys == core.LS || c.variant != core.VDefault)
}

// matrixCells: the six apps on SS and GB, plus every GB engine variant.
func matrixCells(ins []*input) []cell {
	var cells []cell
	for _, x := range ins {
		for _, sys := range []core.System{core.SS, core.GB} {
			for _, app := range core.Apps() {
				cells = append(cells, cell{x, app, sys, core.VDefault})
			}
		}
		for _, app := range core.Apps() {
			for _, v := range core.Variants() {
				if v != core.VIncremental && core.ValidVariant(app, core.GB, v) {
					cells = append(cells, cell{x, app, core.GB, v})
				}
			}
		}
	}
	return cells
}

// graphCells: the six apps on LS, plus the three Lonestar variants.
func graphCells(ins []*input) []cell {
	var cells []cell
	for _, x := range ins {
		for _, app := range core.Apps() {
			cells = append(cells, cell{x, app, core.LS, core.VDefault})
			for _, v := range core.Variants() {
				if core.ValidVariant(app, core.LS, v) && v != core.VDefault {
					cells = append(cells, cell{x, app, core.LS, v})
				}
			}
		}
	}
	return cells
}

func runStudyMatrix(cfg config) (outcome, error) {
	return runStudy(cfg, matrixGraphs, matrixCells)
}

func runStudyGraph(cfg config) (outcome, error) {
	return runStudy(cfg, graphGraphs, graphCells)
}

// opRec is what the timed loop keeps of each op for the later checks.
type opRec struct {
	cell    int
	outcome core.Outcome
	err     error
	check   uint64
	value   string
}

func record(i int, res core.Result) opRec {
	return opRec{cell: i, outcome: res.Outcome, err: res.Err, check: res.Check, value: res.Value}
}

// refKey names the serial reference of one (input, app).
func refKey(c cell) string { return c.x.spec.name + "/" + c.app.String() }

// references computes every digest-exact reference the cells need with
// core.ReferenceCheck on the separately generated copies of the inputs.
func references(ins []*input, cells []cell) (map[string]uint64, error) {
	refs := map[string]uint64{}
	for _, c := range cells {
		if _, ok := refs[refKey(c)]; ok || c.residual() {
			continue
		}
		spec := c.spec()
		spec.Input = c.x.ref
		want, ok := core.ReferenceCheck(spec)
		if !ok {
			return nil, fmt.Errorf("no serial reference for %s", c.name())
		}
		refs[refKey(c)] = want
	}
	for _, x := range ins {
		core.DropPrepared(x.ref.Name, scale)
	}
	return refs, nil
}

// rankTol bounds how far two residual pagerank cells on one input may
// disagree on the reported rank sum and maximum.
const rankTol = 1e-5

// parseRanks reads the "sum=S max=M" summary of a pagerank answer and
// reports whether it has the properties every pagerank must have: both
// figures finite, the rank sum in (0, 1].
func parseRanks(v string) (sum, peak float64, ok bool) {
	if _, err := fmt.Sscanf(v, "sum=%g max=%g", &sum, &peak); err != nil {
		return 0, 0, false
	}
	finite := !math.IsNaN(sum) && !math.IsInf(sum, 0) && !math.IsNaN(peak) && !math.IsInf(peak, 0)
	return sum, peak, finite && sum > 0 && sum <= 1 && peak >= 0
}

// checkStudy counts the failed ops among recs: a non-OK outcome, a digest
// that differs from the serial reference, or a residual pagerank answer
// that is not finite, has a rank sum outside (0, 1], or disagrees with the
// first residual answer on the same input by more than rankTol.
func checkStudy(cells []cell, refs map[string]uint64, recs []opRec) (failed int, msgs []string) {
	type anchor struct{ sum, peak float64 }
	anchors := map[string]anchor{}
	for _, r := range recs {
		c := cells[r.cell]
		msg := ""
		switch {
		case r.outcome != core.OK:
			msg = fmt.Sprintf("outcome %v: %v", r.outcome, r.err)
		case c.residual():
			sum, peak, ok := parseRanks(r.value)
			if !ok {
				msg = fmt.Sprintf("ranks %q fail the finite / sum in (0,1] properties", r.value)
				break
			}
			a, seen := anchors[c.x.spec.name]
			if !seen {
				anchors[c.x.spec.name] = anchor{sum, peak}
			} else if math.Abs(sum-a.sum) > rankTol || math.Abs(peak-a.peak) > rankTol {
				msg = fmt.Sprintf("ranks %q disagree with sum=%g max=%g", r.value, a.sum, a.peak)
			}
		case r.check != refs[refKey(c)]:
			msg = fmt.Sprintf("digest %x, serial reference %x (%s)", r.check, refs[refKey(c)], r.value)
		}
		if msg != "" {
			failed++
			msgs = append(msgs, c.name()+": "+msg)
		}
	}
	return failed, msgs
}

func runStudy(cfg config, specs []graphSpec, mkCells func([]*input) []cell) (outcome, error) {
	ins := generateInputs(specs, cfg.seed)
	cells := mkCells(ins)
	for _, x := range ins {
		logf("input %s: |V|=%d |E|=%d", x.spec.name, x.g.NumNodes, x.g.NumEdges())
	}
	refs, err := references(ins, cells)
	if err != nil {
		return outcome{}, err
	}
	setup := timeSetup(ins)

	st := &studyRun{cells: cells, samples: make([][]float64, len(cells))}
	if cfg.trace {
		st.tr = newTraceAcc(len(cells))
		st.tr.tiling = true
	}
	// One untimed warm-up pass in a fixed order, then whole seeded passes
	// until the run length is reached.
	for i := range cells {
		st.op(i, false)
	}
	order := newRNG(cfg.seed, 100)
	var pm passMeter
	a := sampleRuntime()
	start := time.Now()
	timedOps := 0
	for time.Since(start) < cfg.seconds {
		pm.start()
		for _, i := range order.perm(len(cells)) {
			st.op(i, true)
		}
		pm.stop(len(cells))
		timedOps += len(cells)
	}
	b := sampleRuntime()
	logf("timed phase: %d passes in %.1f s", len(pm.rates), time.Since(start).Seconds())

	failed, msgs := checkStudy(cells, refs, st.recs)
	for _, m := range msgs {
		logf("FAILED %s", m)
	}
	out := outcome{correct: true, attempted: len(st.recs), failed: failed, values: map[string]float64{}}
	v := out.values
	medians := make([]float64, len(cells))
	for i, c := range cells {
		medians[i] = median(st.samples[i])
		logf("cell %-24s median %9.3f ms over %d ops", c.name(), medians[i], len(st.samples[i]))
	}
	if !cfg.trace {
		v["setup_s"] = setup
		v["op_geomean_ms"] = geomean(medians)
		pm.endToEnd(v)
		v["heap_mb"] = liveHeapMB()
		return out, nil
	}
	zeroLayers(v)
	v["core.prepare_s"] = setup
	v["core.prepared_inputs"] = float64(core.PreparedCount())
	v["core.incr_states"] = float64(core.IncrementalStateCount())
	v["trace.op_geomean_ms"] = geomean(medians)
	gcLayer(v, a, b, timedOps)
	if !st.tr.report(v, cells, medians) {
		out.correct = false
	}
	return out, nil
}

// studyRun holds one study run's per-op state.
type studyRun struct {
	cells   []cell
	samples [][]float64 // benchmark-clock latency (ms) of each timed op, per cell
	recs    []opRec
	tr      *traceAcc // nil on untraced runs
}

// op runs cells[i] once. Traced runs install a fresh trace around the call
// (installation is global, so ops never overlap) and attribute it after
// the clock stops.
func (st *studyRun) op(i int, timed bool) {
	spec := st.cells[i].spec()
	var tr *trace.Trace
	if st.tr != nil {
		tr = trace.NewWithCapacity(st.tr.capacity[i])
		trace.Install(tr)
	}
	t := time.Now()
	res := core.RunCtx(context.Background(), spec)
	d := time.Since(t)
	if tr != nil {
		trace.Install(nil)
		if !st.tr.add(i, st.cells[i], tr, res, d, timed) {
			// The ring was too small to hold every span: grow it and
			// repeat the (untimed) warm-up op so its attribution is
			// complete.
			st.op(i, timed)
			return
		}
	}
	st.recs = append(st.recs, record(i, res))
	if timed {
		st.samples[i] = append(st.samples[i], ms(d))
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// zeroLayers sets every per-layer metric to 0 so a layer the workload
// never enters reports 0; workloads then overwrite what they measure.
func zeroLayers(v map[string]float64) {
	for _, d := range perLayer {
		v[d.Name] = 0
	}
}

// appMetric is the per-app per-layer metric name ("lagraph.bfs_ms").
func appMetric(sys core.System, app core.App) string {
	mod := "lagraph"
	if sys == core.LS {
		mod = "lonestar"
	}
	return mod + "." + strings.ToLower(app.String()) + "_ms"
}
