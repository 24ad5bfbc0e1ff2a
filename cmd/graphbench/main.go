// Command graphbench drives graphd with deterministic seeded load and
// gates performance regressions against a committed BENCH_*.json
// baseline.
//
// Usage:
//
//	graphbench run -scenario smoke -self -json BENCH_fresh.json
//	graphbench run -scenario steady -url http://127.0.0.1:8080 -record session.jsonl
//	graphbench replay -session session.jsonl -self -pace 2
//	graphbench plan -scenario smoke -o session.jsonl
//	graphbench gate -baseline BENCH_11.json -fresh BENCH_fresh.json
//	graphbench scenarios
//
// `run` expands a scenario (a preset name or a JSON file) into its
// seeded schedule and executes it; `replay` reissues a recorded or
// planned JSONL session with original, scaled, or no pacing; `plan`
// writes the schedule without executing it (byte-identical per seed);
// `gate` compares two BENCH_*.json files like a lint pass — one line per
// violated tolerance, exit 1 on any finding. -self boots an in-process
// graphd so CI needs no separate server process; -json merges the
// serving-path numbers into a BENCH_*.json next to the kernel rows from
// `gentables -exp bench`.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"graphstudy/internal/bench"
	"graphstudy/internal/loadgen"
	"graphstudy/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "plan":
		cmdPlan(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "scenarios":
		cmdScenarios()
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "graphbench: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `graphbench <subcommand>:

  run        expand a scenario into its seeded schedule and execute it
  replay     reissue a recorded/planned JSONL session
  plan       write a scenario's schedule as JSONL without executing
  gate       compare a fresh BENCH_*.json against a baseline (exit 1 on findings)
  scenarios  list built-in scenario presets

Run 'graphbench <subcommand> -h' for flags.
`)
}

// serverFlags are the flags shared by run and replay: where the traffic
// goes, and the in-process graphd's shape when -self is set.
type serverFlags struct {
	url     *string
	self    *bool
	workers *int
	queue   *int
	cacheSz *int
}

func addServerFlags(fs *flag.FlagSet) *serverFlags {
	return &serverFlags{
		url:     fs.String("url", "", "graphd base URL, e.g. http://127.0.0.1:8080"),
		self:    fs.Bool("self", false, "boot an in-process graphd instead of targeting -url"),
		workers: fs.Int("workers", 2, "-self: worker pool size"),
		queue:   fs.Int("queue", 64, "-self: admission queue depth"),
		cacheSz: fs.Int("cache", 128, "-self: result cache entries"),
	}
}

// target resolves the flags to a base URL, booting an in-process graphd
// when -self is set. The returned cleanup stops that server.
func (sf *serverFlags) target() (string, func(), error) {
	if *sf.self == (*sf.url != "") {
		return "", nil, fmt.Errorf("graphbench: need exactly one of -url or -self")
	}
	if !*sf.self {
		return *sf.url, func() {}, nil
	}
	srv := service.New(service.Config{
		Workers:        *sf.workers,
		QueueDepth:     *sf.queue,
		CacheSize:      *sf.cacheSz,
		DefaultThreads: 4,
		DefaultTimeout: 5 * time.Minute,
		MaxTimeout:     time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	fmt.Fprintf(os.Stderr, "graphbench: in-process graphd on %s (%d workers, queue %d, cache %d)\n",
		ts.URL, *sf.workers, *sf.queue, *sf.cacheSz)
	return ts.URL, func() { ts.Close(); srv.Close() }, nil
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("graphbench run", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "smoke", "preset name or scenario JSON file")
		seed     = fs.Uint64("seed", 0, "override the scenario's seed (0 = keep)")
		record   = fs.String("record", "", "write the planned schedule as JSONL to this file")
		jsonOut  = fs.String("json", "", "merge the serving report into this BENCH_*.json file")
		sf       = addServerFlags(fs)
	)
	_ = fs.Parse(args)

	sc, err := loadgen.LoadScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	entries, err := loadgen.Plan(sc)
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		if err := writeSessionFile(*record, entries); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "graphbench: planned schedule (%d entries) written to %s\n", len(entries), *record)
	}

	base, cleanup, err := sf.target()
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	rep, err := loadgen.Execute(entries, loadgen.Options{
		BaseURL: base, Mode: sc.Mode, Concurrency: sc.Concurrency,
	})
	if err != nil {
		fatal(err)
	}
	rep.Scenario, rep.Seed, rep.Mode = sc.Name, sc.Seed, sc.Mode
	if err := rep.AttachServerMetrics(base, nil); err != nil {
		fmt.Fprintln(os.Stderr, "graphbench: warning:", err)
	}
	if sc.SLO != nil {
		rep.Violations = sc.SLO.Check(rep)
	}
	finish(rep, *jsonOut)
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("graphbench replay", flag.ExitOnError)
	var (
		session = fs.String("session", "", "JSONL session file (recorded by graphd -record or written by plan)")
		pace    = fs.Float64("pace", 1, "replay speed multiplier: 2 = twice as fast, 0 = no pacing")
		mode    = fs.String("mode", "open", "issuance mode: open honors offsets, closed uses a worker pool")
		conc    = fs.Int("concurrency", 4, "worker count (closed) / in-flight basis (open)")
		jsonOut = fs.String("json", "", "merge the serving report into this BENCH_*.json file")
		sf      = addServerFlags(fs)
	)
	_ = fs.Parse(args)

	if *session == "" {
		fatal(fmt.Errorf("graphbench replay: -session is required"))
	}
	f, err := os.Open(*session)
	if err != nil {
		fatal(err)
	}
	entries, err := loadgen.ReadSession(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("graphbench replay: %s holds no entries", *session))
	}
	entries = loadgen.ScaleOffsets(entries, *pace)

	base, cleanup, err := sf.target()
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	rep, err := loadgen.Execute(entries, loadgen.Options{
		BaseURL: base, Mode: *mode, Concurrency: *conc,
	})
	if err != nil {
		fatal(err)
	}
	rep.Scenario, rep.Mode = "replay:"+*session, *mode
	if err := rep.AttachServerMetrics(base, nil); err != nil {
		fmt.Fprintln(os.Stderr, "graphbench: warning:", err)
	}
	finish(rep, *jsonOut)
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("graphbench plan", flag.ExitOnError)
	var (
		scenario = fs.String("scenario", "smoke", "preset name or scenario JSON file")
		seed     = fs.Uint64("seed", 0, "override the scenario's seed (0 = keep)")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	_ = fs.Parse(args)

	sc, err := loadgen.LoadScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	entries, err := loadgen.Plan(sc)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		if err := loadgen.WriteSession(os.Stdout, entries); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeSessionFile(*out, entries); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "graphbench: %d entries written to %s\n", len(entries), *out)
}

func cmdGate(args []string) {
	fs := flag.NewFlagSet("graphbench gate", flag.ExitOnError)
	tol := bench.DefaultTolerances()
	var (
		baseline = fs.String("baseline", "", "committed BENCH_*.json baseline")
		fresh    = fs.String("fresh", "", "freshly generated BENCH_*.json")
	)
	fs.Float64Var(&tol.TimeFactor, "time-factor", tol.TimeFactor, "latency/time growth factor bound")
	fs.Float64Var(&tol.TimeFloorMs, "time-floor-ms", tol.TimeFloorMs, "absolute slack added to every time bound")
	fs.Float64Var(&tol.BytesFactor, "bytes-factor", tol.BytesFactor, "bytes-materialized growth bound")
	fs.Float64Var(&tol.MaxErrorRate, "max-error-rate", tol.MaxErrorRate, "allowed serving error fraction")
	_ = fs.Parse(args)

	if *baseline == "" || *fresh == "" {
		fatal(fmt.Errorf("graphbench gate: -baseline and -fresh are both required"))
	}
	b, err := bench.ReadBenchFile(*baseline)
	if err != nil {
		fatal(err)
	}
	n, err := bench.ReadBenchFile(*fresh)
	if err != nil {
		fatal(err)
	}
	findings := bench.Compare(b, n, tol)
	for _, f := range findings {
		fmt.Printf("%s: %s\n", *fresh, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "graphbench gate: %d finding(s) against %s\n", len(findings), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "graphbench gate: pass (%s within tolerances of %s)\n", *fresh, *baseline)
}

func cmdScenarios() {
	presets := loadgen.Presets()
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := presets[name]
		pacing := fmt.Sprintf("closed, %d workers", sc.Concurrency)
		if sc.Mode == "open" {
			pacing = fmt.Sprintf("open, %.0f req/s", sc.RatePerSec)
		}
		fmt.Printf("%-8s %4d requests, seed %d, %s, %d mix entries\n",
			name, sc.Requests, sc.Seed, pacing, len(sc.Mix))
	}
}

// finish renders the report, optionally merges it into a BENCH file, and
// exits 1 on SLO violations (after writing, so the artifact survives for
// inspection).
func finish(rep *loadgen.Report, jsonOut string) {
	if err := rep.Table().Render(os.Stdout); err != nil {
		fatal(err)
	}
	if jsonOut != "" {
		if err := bench.MergeBenchFile(jsonOut, func(r *bench.BenchReport) {
			r.Seed = rep.Seed
			r.Scenario = rep.Scenario
			r.Serving = servingBench(rep)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "graphbench: serving report merged into %s\n", jsonOut)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "graphbench: %d SLO violation(s)\n", len(rep.Violations))
		os.Exit(1)
	}
}

// servingBench converts a loadgen report into the BENCH_*.json serving
// section. The conversion lives here so internal/bench never imports
// internal/loadgen.
func servingBench(rep *loadgen.Report) *bench.ServingBench {
	return &bench.ServingBench{
		Requests:      rep.Requests,
		OK:            rep.OK,
		Timeouts:      rep.Timeouts,
		Errors:        rep.Errors,
		TooMany:       rep.TooMany,
		CacheHits:     rep.CacheHits,
		ThroughputRPS: rep.ThroughputRPS,
		LatP50Ms:      rep.LatP50Ms,
		LatP99Ms:      rep.LatP99Ms,
		ServerP99Ms:   rep.ServerP99Ms,
		QueueRejects:  rep.Server["queue_rejects"],
		DedupHits:     rep.Server["dedup_hits"],
		RunsTotal:     rep.Server["runs_total"],
	}
}

func writeSessionFile(path string, entries []loadgen.Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = loadgen.WriteSession(f, entries)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbench:", err)
	os.Exit(1)
}
