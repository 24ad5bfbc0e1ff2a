// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the program through its public packages only —
// core.Prepare/core.RunCtx for the two study workloads, and an in-process
// graphd (service.New over a store.Registry) behind a loopback HTTP
// listener for serve-ingest — checks every answer against a reference
// computed apart from the measured path, and prints one JSON object as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced run produces the per-layer set. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is the set every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_geomean_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_mb", "MB"},
}

// perLayer is the set every workload reports with -trace 1. A layer the
// workload never enters reports 0 (study-graph never reaches grb, the
// study workloads never reach store or service).
var perLayer = []metricDef{
	{"core.prepare_s", "s"},
	{"core.run_overhead_ms", "ms"},
	{"core.snapshot_prepare_ms", "ms"},
	{"core.prepared_inputs", "count"},
	{"core.incr_states", "count"},

	{"lagraph.rounds_per_op", "count/op"},
	{"lagraph.round_self_us", "us"},
	{"lagraph.bfs_ms", "ms"},
	{"lagraph.sssp_ms", "ms"},
	{"lagraph.pr_ms", "ms"},
	{"lagraph.cc_ms", "ms"},
	{"lagraph.tc_ms", "ms"},
	{"lagraph.ktruss_ms", "ms"},
	{"lagraph.incr_run_ms", "ms"},
	{"lagraph.delta_fallbacks_per_op", "count/op"},
	{"lagraph.delta_touched_per_op", "count/op"},

	{"grb.kernel_self_ms_per_op", "ms/op"},
	{"grb.kernels_per_op", "count/op"},
	{"grb.mb_materialized_per_op", "MB/op"},
	{"grb.knnz_per_ms", "knnz/ms"},

	{"fuse.mb_elided_per_op", "MB/op"},
	{"fuse.bails_per_op", "count/op"},

	{"adapt.decisions_per_op", "count/op"},
	{"adapt.pull_rounds_per_op", "count/op"},

	{"galois.regions_per_op", "count/op"},
	{"galois.region_us", "us"},
	{"galois.steals_per_op", "count/op"},
	{"galois.loop_ms_per_op", "ms/op"},

	{"lonestar.bfs_ms", "ms"},
	{"lonestar.sssp_ms", "ms"},
	{"lonestar.pr_ms", "ms"},
	{"lonestar.cc_ms", "ms"},
	{"lonestar.tc_ms", "ms"},
	{"lonestar.ktruss_ms", "ms"},
	{"lonestar.sssp_work_per_op", "count/op"},

	{"service.hit_ms", "ms"},
	{"service.hit_p90_ms", "ms"},
	{"service.ingest_ms", "ms"},
	{"service.ingest_p90_ms", "ms"},
	{"service.fresh_ms", "ms"},
	{"service.warm_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.dedup_hits_per_op", "count/op"},
	{"service.runs_per_op", "count/op"},

	{"store.put_s", "s"},
	{"store.append_ms", "ms"},
	{"store.materialize_ms", "ms"},
	{"store.resident_mb", "MB"},
	{"store.evictions_per_op", "count/op"},

	{"runtime.gc_cycles_per_op", "count/op"},
	{"runtime.gc_pause_ms_per_op", "ms/op"},
	{"runtime.gc_cpu_ms_per_op", "ms/op"},

	{"trace.op_geomean_ms", "ms"},
	{"trace.untraced_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (outcome, error){
	"study-matrix": runStudyMatrix,
	"study-graph":  runStudyGraph,
	"serve-ingest": runServeIngest,
}

// config is one invocation's parameters.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// outcome is what a workload hands back for printing: op counts and the
// metric values by name. correct is false when any check beyond the
// per-op answer checks failed (e.g. the traced run's tiling assertion).
type outcome struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: study-matrix, study-graph or serve-ingest")
	seed := flag.Uint64("seed", 1, "seed for every generated input and schedule")
	seconds := flag.Int("seconds", 25, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the serve-ingest temp stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %v, -seconds >= 1, -trace 0 or 1\n", names)
		os.Exit(2)
	}
	// Two OS threads of work at most: the host has two vCPUs, and the
	// batch runs use two workers.
	runtime.GOMAXPROCS(2)

	out, err := run(config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res := resultJSON{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *workload, d.Name)
			os.Exit(1)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
