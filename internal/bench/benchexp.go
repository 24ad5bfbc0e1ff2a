package bench

import (
	"fmt"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/trace"
)

// benchCell is one (app, system, variant, graph) measurement of the
// bench experiment.
type benchCell struct {
	app     core.App
	sys     core.System
	variant core.Variant
	graph   string
}

// benchCells is the fixed offline workload of `gentables -exp bench`:
// every app on every system on the RMAT input, plus the two
// road-network-sourced apps on the weighted road graph, plus the fused
// lazy-DAG column for the three ported workloads. Small enough for CI,
// wide enough that a regression in any app family, either API, or the
// fusion planner moves a number.
func benchCells() []benchCell {
	var cells []benchCell
	for _, app := range core.Apps() {
		for _, sys := range []core.System{core.SS, core.GB, core.LS} {
			cells = append(cells, benchCell{app, sys, core.VDefault, "rmat22"})
		}
	}
	for _, app := range []core.App{core.BFS, core.SSSP} {
		for _, sys := range []core.System{core.SS, core.GB, core.LS} {
			cells = append(cells, benchCell{app, sys, core.VDefault, "road-USA-W"})
		}
	}
	// The fused-grb column: same graphs as the eager GB cells so the
	// elision win is read off as a same-row comparison.
	for _, app := range []core.App{core.BFS, core.PR, core.SSSP} {
		cells = append(cells, benchCell{app, core.GB, core.VFused, "rmat22"})
	}
	for _, app := range []core.App{core.BFS, core.SSSP} {
		cells = append(cells, benchCell{app, core.GB, core.VFused, "road-USA-W"})
	}
	// The adaptive column: the runtime decision engine on the same RMAT
	// rows, so a regression in the direction/representation switch (or a
	// digest drift against the eager rows above) trips the gate.
	for _, app := range []core.App{core.BFS, core.PR, core.SSSP, core.CC} {
		cells = append(cells, benchCell{app, core.GB, core.VAdaptive, "rmat22"})
	}
	for _, app := range []core.App{core.BFS, core.SSSP} {
		cells = append(cells, benchCell{app, core.GB, core.VAdaptive, "road-USA-W"})
	}
	return cells
}

// BenchKernels runs the offline kernel side of a BENCH_*.json: each cell
// executes once with a fresh operator trace, and the row records elapsed
// wall time, summed operator time (grb kernels for the matrix systems,
// galois regions and loops for Lonestar), bytes materialized, rounds,
// and the result digest. Runs are sequential — trace installation is
// process-global — so cells never contend. Any non-OK cell is an error:
// a bench baseline must be green.
func BenchKernels(cfg Config, progress func(string)) ([]KernelBench, error) {
	var out []KernelBench
	for _, c := range benchCells() {
		if progress != nil {
			progress(fmt.Sprintf("bench %v/%v/%s", c.app, c.sys, c.graph))
		}
		in, err := gen.ByName(c.graph)
		if err != nil {
			return nil, err
		}
		release, err := cfg.lease(c.graph, cfg.Scale)
		if err != nil {
			return nil, err
		}
		tr := trace.New()
		res := core.Run(core.RunSpec{
			App: c.app, System: c.sys, Variant: c.variant, Input: in,
			Scale: cfg.Scale, Threads: cfg.Threads, Timeout: cfg.Timeout,
			Trace: tr,
		})
		release()
		if res.Outcome != core.OK {
			return nil, fmt.Errorf("bench: cell %v/%v/%s/%s: outcome %v (err %v)",
				c.app, c.sys, c.variant, c.graph, res.Outcome, res.Err)
		}
		sum := res.Trace
		// CatFused spans are excluded: they wrap the CatKernel spans the
		// fused grb kernels emit, so adding them would double-count.
		opMs := float64(sum.CatTotal(trace.CatKernel)+
			sum.CatTotal(trace.CatRegion)+
			sum.CatTotal(trace.CatLoop)) / 1e6
		lo, hi := scheduleBounds(c, res, out)
		out = append(out, KernelBench{
			App:         c.app.String(),
			System:      c.sys.String(),
			Variant:     string(c.variant),
			Graph:       c.graph,
			Scale:       cfg.Scale.String(),
			ElapsedMs:   float64(res.Elapsed) / 1e6,
			KernelMs:    opMs,
			Rounds:      res.Rounds,
			RoundsMin:   lo,
			RoundsMax:   hi,
			Bytes:       sum.Bytes,
			BytesElided: sum.BytesElided,
			Check:       fmt.Sprintf("%x", res.Check),
		})
	}
	// The incremental column rides its own deterministic mutation lineage
	// (cold epoch-1 and warm epoch-2 cells per workload), so regressions in
	// the streaming-delta path move a gated number too.
	incr, err := incrBenchRows(cfg, progress)
	if err != nil {
		return nil, err
	}
	return append(out, incr...), nil
}

// scheduleBounds returns bounds on a cell's Rounds that hold under every
// thread schedule, for the two cells whose round counter depends on the
// schedule; (0, 0) means Rounds is deterministic and gates exactly.
//
//   - Lonestar sssp reports the work items it applied, and which items go
//     stale before they are popped depends on which relaxations race
//     ahead. Every reached vertex v contributes at least one applied item:
//     exactly one write ever lowers dist[v] to its final value (the
//     source's initial store, or the one minCAS that wins), it pushes at
//     least one item carrying that value (pushNode pushes one per edge
//     tile, one even for a vertex without out-edges), and when that item
//     is popped dist[v] can go no lower, so the stale check passes it.
//     Hence Rounds >= reached vertices.
//   - Lonestar ktruss peels Gauss-Seidel: a kill is visible to the support
//     counts made after it in the same round, so how much a round removes
//     depends on the order workers reach edges. By induction its alive set
//     after r rounds is a subset of the Jacobi peel's (every support it
//     counts is over fewer live edges), and both end at the same k-truss,
//     so it stops no later than the Jacobi peel — the matrix ktruss, whose
//     round count (taken from the GB cell on the same graph when the cell
//     set holds one) bounds it from above. Every run takes at least one
//     round.
func scheduleBounds(c benchCell, res core.Result, prev []KernelBench) (lo, hi int) {
	if c.sys != core.LS {
		return 0, 0
	}
	switch c.app {
	case core.SSSP:
		var reached int
		if _, err := fmt.Sscanf(res.Value, "reached=%d", &reached); err != nil || reached < 1 {
			reached = 1 // the source is always reached
		}
		return reached, 0
	case core.KTruss:
		for _, k := range prev {
			if k.App == c.app.String() && k.System == core.GB.String() && k.Variant == "" && k.Graph == c.graph {
				return 1, k.Rounds
			}
		}
		return 1, 0
	}
	return 0, 0
}

// BenchTable renders the kernel rows as an aligned table.
func BenchTable(kernels []KernelBench) *Table {
	t := NewTable("Bench: per-cell kernel time, bytes materialized, and digests",
		"app", "sys", "variant", "graph", "scale", "elapsed ms", "op ms", "rounds", "bytes", "elided", "digest")
	for _, k := range kernels {
		variant := k.Variant
		if variant == "" {
			variant = "-"
		}
		t.AddRow(k.App, k.System, variant, k.Graph, k.Scale,
			fmt.Sprintf("%.2f", k.ElapsedMs),
			fmt.Sprintf("%.2f", k.KernelMs),
			fmt.Sprint(k.Rounds),
			fmt.Sprint(k.Bytes),
			fmt.Sprint(k.BytesElided),
			k.Check)
	}
	t.AddNote("op ms sums grb kernel spans plus galois region/loop spans; bytes, rounds, elided bytes, and digests are deterministic and gate exactly")
	return t
}
