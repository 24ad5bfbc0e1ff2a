package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/graph"
	"graphstudy/internal/service"
	"graphstudy/internal/store"
	"graphstudy/internal/trace"
)

// serve-ingest parameters (README, "serve-ingest schedule").
const (
	mutName     = "rmat" // the mutating dataset
	staticName  = "grid" // the static dataset the repeat (cache-hit) queries read
	batchAdds   = 32     // upserts per ingest batch
	batchDels   = 8      // deletes in every deleteEvery-th batch
	deleteEvery = 4      // one batch in four deletes edges; a round is 4 steps
	serveBudget = 16 << 20
	serveSetups = 9 // set-up repetitions; setup_s is the median
	replaySteps = 24
)

var (
	mutGraph = graphSpec{name: mutName, rmatScale: 13}
	// The store serves datasets as external inputs, which take the default
	// study parameters, so the grid is not marked road here.
	staticGraph = graphSpec{name: staticName, rows: 32, subdiv: 2}
)

// hitQueries are the repeat queries on the static dataset; after the
// warm-up they are served from graphd's result cache.
var hitQueries = []service.RunRequest{
	{App: "bfs", System: "GB", Graph: staticName},
	{App: "cc", System: "GB", Graph: staticName},
	{App: "pr", System: "GB", Graph: staticName},
	{App: "sssp", System: "GB", Graph: staticName},
	{App: "bfs", System: "LS", Graph: staticName},
	{App: "tc", System: "LS", Graph: staticName},
}

// incrApps are queried after every batch, in this order: the first is the
// fresh query (snapshot materialisation and core.Prepare), the rest warm.
var incrApps = []core.App{core.BFS, core.CC, core.PR}

// Request classes of serve-ingest; op_geomean_ms is over their medians.
const (
	cIngest = iota
	cFresh
	cWarmCC
	cWarmPR
	cHit
	nClasses
)

var classNames = [nClasses]string{"ingest", "fresh", "warm-cc", "warm-pr", "hit"}

// schedule is the seeded ingest sequence and the benchmark's own record of
// what it sent: the base edges and every batch, in order.
type schedule struct {
	r       *rng
	n       uint32
	base    map[uint64]uint32 // edge key -> weight of the base graph
	baseKey []uint64          // base edge keys in CSR order
	cur     map[uint64]bool   // edges present after the last generated batch
	batches [][]store.DeltaOp // batches[k] commits as epoch k+1
}

func edgeKey(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

func newSchedule(g *graph.Graph, seed uint64) *schedule {
	s := &schedule{r: newRNG(seed, 200), n: g.NumNodes, base: map[uint64]uint32{}, cur: map[uint64]bool{}}
	for u := uint32(0); u < g.NumNodes; u++ {
		ws := g.OutWeights(u)
		for i, v := range g.OutEdges(u) {
			k := edgeKey(u, v)
			s.base[k] = ws[i]
			s.baseKey = append(s.baseKey, k)
			s.cur[k] = true
		}
	}
	return s
}

// batch returns batch k, generating batches up to k on first use.
func (s *schedule) batch(k int) []store.DeltaOp {
	for len(s.batches) <= k {
		i := len(s.batches)
		var ops []store.DeltaOp
		for j := 0; j < batchAdds; j++ {
			u, v := uint32(s.r.intn(int(s.n))), uint32(s.r.intn(int(s.n)))
			ops = append(ops, store.DeltaOp{Src: u, Dst: v, W: uint32(1 + s.r.intn(255))})
			s.cur[edgeKey(u, v)] = true
		}
		if i%deleteEvery == deleteEvery-1 {
			for j := 0; j < batchDels; {
				k := s.baseKey[s.r.intn(len(s.baseKey))]
				if !s.cur[k] {
					continue
				}
				delete(s.cur, k)
				ops = append(ops, store.DeltaOp{Del: true, Src: uint32(k >> 32), Dst: uint32(k)})
				j++
			}
		}
		s.batches = append(s.batches, ops)
	}
	return s.batches[k]
}

// snapshots rebuilds the graph at each wanted epoch from the record alone
// (base edges plus the batches sent), independently of the store's delta
// log and of store.MaterializeDeltas, and hands it to fn in epoch order.
func (s *schedule) snapshots(want map[uint64]bool, fn func(epoch uint64, g *graph.Graph)) {
	var last uint64
	for e := range want {
		if e > last {
			last = e
		}
	}
	edges := make(map[uint64]uint32, len(s.base))
	for k, w := range s.base {
		edges[k] = w
	}
	for e := uint64(1); e <= last; e++ {
		for _, op := range s.batches[e-1] {
			if op.Del {
				delete(edges, edgeKey(op.Src, op.Dst))
			} else {
				edges[edgeKey(op.Src, op.Dst)] = op.W
			}
		}
		if !want[e] {
			continue
		}
		b := graph.NewBuilder(s.n, true)
		b.Reserve(len(edges))
		for k, w := range edges {
			b.AddEdge(uint32(k>>32), uint32(k), w)
		}
		g := b.BuildDedup(graph.MinWeight)
		g.SortAdjacency()
		g.BuildIn()
		fn(e, g)
	}
}

// server is one in-process graphd: store, registry, service and a
// loopback listener.
type server struct {
	dir  string
	reg  *store.Registry
	svc  *service.Server
	http *httptest.Server
	put  time.Duration // store.Put of both datasets
	prep time.Duration // core.Prepare of both datasets
}

// startServer performs serve-ingest's set-up: store.Put of both datasets
// into a fresh store, registry load and core.Prepare of each, service
// start, and a loopback listener answering /healthz.
func startServer(workdir string, mut, static *graph.Graph) (*server, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir}
	st, err := store.Open(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	t := time.Now()
	if _, err := st.Put(mutName, mut, nil); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	if _, err := st.Put(staticName, static, nil); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s.put = time.Since(t)
	s.reg = store.NewRegistry(store.RegistryConfig{Store: st, Budget: serveBudget})
	for _, name := range []string{mutName, staticName} {
		in, err := s.reg.Input(name)
		if err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
		h, err := s.reg.Acquire(name, scale)
		if err != nil {
			return nil, errors.Join(err, os.RemoveAll(dir))
		}
		t := time.Now()
		core.Prepare(in, scale)
		s.prep += time.Since(t)
		h.Release()
	}
	s.svc = service.New(service.Config{Workers: 2, DefaultThreads: 1, Registry: s.reg})
	s.http = httptest.NewServer(s.svc.Handler()) // listens on 127.0.0.1:0
	resp, err := http.Get(s.http.URL + "/healthz")
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	resp.Body.Close()
	// The load's two connections are the only ones left open.
	http.DefaultClient.CloseIdleConnections()
	return s, nil
}

// stop closes the listener (waiting for in-flight requests) and the
// service, drops every cached form of the store's graphs, and removes the
// store directory.
func (s *server) stop() error {
	s.http.Close()
	s.svc.Close()
	for _, d := range s.reg.Datasets() {
		core.DropPrepared(d.Name, scale)
	}
	core.ResetIncremental(mutName)
	return os.RemoveAll(s.dir)
}

// client is one HTTP connection's worth of closed-loop client.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: url}
}

func (c *client) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (c *client) metrics() (map[string]any, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// reqRec is one HTTP request's outcome, kept for the later checks.
type reqRec struct {
	class int
	epoch uint64 // ingest: the epoch expected; runs: the epoch queried
	app   core.App
	hit   int // index into hitQueries for cHit
	lat   time.Duration
	timed bool
	err   error
	run   service.RunResponse
	got   uint64 // ingest: the epoch the server committed
}

// serveRun drives one serve-ingest run.
type serveRun struct {
	sched  *schedule
	writer *client // ingest and the incremental queries
	reader *client // the repeat queries
	recs   [2][]reqRec
}

// step sends batch k, then queries every incremental app at the epoch it
// committed, while the reader sends one round of repeat queries.
func (r *serveRun) step(k int, timed bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	//lint:ignore gostmt the second client connection: one goroutine per step, joined by wg.Wait before step returns
	go func() {
		defer wg.Done()
		for i, q := range hitQueries {
			rec := reqRec{class: cHit, hit: i, timed: timed}
			t := time.Now()
			rec.err = r.reader.post("/v1/run", q, &rec.run)
			rec.lat = time.Since(t)
			r.recs[1] = append(r.recs[1], rec)
		}
	}()
	epoch := uint64(k + 1)
	ops := r.sched.batch(k)
	req := service.IngestRequest{Ops: make([]service.EdgeOp, len(ops))}
	for i, op := range ops {
		req.Ops[i] = service.EdgeOp{Src: op.Src, Dst: op.Dst, W: op.W, Del: op.Del}
	}
	rec := reqRec{class: cIngest, epoch: epoch, timed: timed}
	var ir service.IngestResponse
	t := time.Now()
	rec.err = r.writer.post("/v1/graphs/"+mutName+"/edges", req, &ir)
	rec.lat = time.Since(t)
	rec.got = ir.Epoch
	r.recs[0] = append(r.recs[0], rec)
	for i, app := range incrApps {
		e := epoch
		q := service.RunRequest{App: app.String(), System: "GB", Variant: string(core.VIncremental), Graph: mutName, Epoch: &e}
		rec := reqRec{class: cFresh + i, epoch: epoch, app: app, timed: timed}
		t := time.Now()
		rec.err = r.writer.post("/v1/run", q, &rec.run)
		rec.lat = time.Since(t)
		r.recs[0] = append(r.recs[0], rec)
	}
	wg.Wait()
}

// serveRefs are the reference digests the responses are checked against.
type serveRefs struct {
	hits   []uint64                    // per hitQueries entry
	epochs map[uint64][nClasses]uint64 // per epoch: digest by class (cFresh, cWarmCC, cWarmPR)
}

// hitRefs computes the static dataset's references on the benchmark's own
// copy of the grid.
func hitRefs(x *input) ([]uint64, error) {
	out := make([]uint64, len(hitQueries))
	for i, q := range hitQueries {
		app, _ := core.ParseApp(q.App)
		sys, _ := core.ParseSystem(q.System)
		want, ok := core.ReferenceCheck(core.RunSpec{App: app, System: sys, Input: x.ref, Scale: scale})
		if !ok {
			return nil, fmt.Errorf("no serial reference for %s/%s", q.App, q.System)
		}
		out[i] = want
	}
	core.DropPrepared(x.ref.Name, scale)
	return out, nil
}

// epochRefs computes, for every wanted epoch, the bfs and cc references
// (core.ReferenceCheck) and the from-scratch gb-res pagerank digest (the
// incremental pagerank's formulation, which has no serial reference) on the
// graph rebuilt from the benchmark's record. Two workers share the epochs;
// none of this is timed.
func epochRefs(s *schedule, want map[uint64]bool) map[uint64][nClasses]uint64 {
	type snap struct {
		epoch uint64
		g     *graph.Graph
	}
	out := map[uint64][nClasses]uint64{}
	var mu sync.Mutex
	snaps := make(chan snap, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		//lint:ignore gostmt two reference workers outside the timed phase, drained by closing snaps and joined by wg.Wait
		go func() {
			defer wg.Done()
			for sn := range snaps {
				in := newInput(fmt.Sprintf("check-e%d", sn.epoch), false, sn.g)
				var d [nClasses]uint64
				d[cFresh], _ = core.ReferenceCheck(core.RunSpec{App: core.BFS, System: core.GB, Input: in, Scale: scale})
				d[cWarmCC], _ = core.ReferenceCheck(core.RunSpec{App: core.CC, System: core.GB, Input: in, Scale: scale})
				pr := core.RunCtx(context.Background(), core.RunSpec{App: core.PR, System: core.GB, Variant: core.VGBRes, Input: in, Scale: scale, Threads: 1})
				if pr.Outcome == core.OK {
					d[cWarmPR] = pr.Check
				} // else 0, which no response digest matches
				core.DropPrepared(in.Name, scale)
				mu.Lock()
				out[sn.epoch] = d
				mu.Unlock()
			}
		}()
	}
	s.snapshots(want, func(e uint64, g *graph.Graph) { snaps <- snap{e, g} })
	close(snaps)
	wg.Wait()
	return out
}

// checkServe counts the failed requests: a transport or HTTP error, an
// ingest that committed another epoch than the one the schedule expects,
// a run whose outcome is not ok, or a digest that differs from the
// reference of the graph rebuilt from the record.
func checkServe(recs []reqRec, refs serveRefs) (failed int, msgs []string) {
	for _, r := range recs {
		msg := ""
		switch {
		case r.err != nil:
			msg = r.err.Error()
		case r.class == cIngest:
			if r.got != r.epoch {
				msg = fmt.Sprintf("ingest committed epoch %d, want %d", r.got, r.epoch)
			}
		case r.run.Outcome != core.OK.String():
			msg = fmt.Sprintf("outcome %s: %s", r.run.Outcome, r.run.Error)
		default:
			want := refs.epochs[r.epoch][r.class]
			if r.class == cHit {
				want = refs.hits[r.hit]
			}
			got, err := strconv.ParseUint(r.run.Digest, 16, 64)
			if err != nil || got != want {
				msg = fmt.Sprintf("digest %q, reference %x (%s)", r.run.Digest, want, r.run.Value)
			} else if r.class == cWarmPR {
				if _, _, ok := parseRanks(r.run.Value); !ok {
					msg = fmt.Sprintf("ranks %q fail the finite / sum in (0,1] properties", r.run.Value)
				}
			}
		}
		if msg != "" {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s epoch %d: %s", className(r), r.epoch, msg))
		}
	}
	return failed, msgs
}

func className(r reqRec) string {
	switch r.class {
	case cIngest:
		return "ingest"
	case cHit:
		q := hitQueries[r.hit]
		return "hit " + q.App + "/" + q.System
	}
	return "incremental " + r.app.String()
}

func runServeIngest(cfg config) (outcome, error) {
	ins := generateInputs([]graphSpec{mutGraph, staticGraph}, cfg.seed)
	mut, static := ins[0], ins[1]
	logf("input %s: |V|=%d |E|=%d; input %s: |V|=%d |E|=%d",
		mutName, mut.g.NumNodes, mut.g.NumEdges(), staticName, static.g.NumNodes, static.g.NumEdges())
	hits, err := hitRefs(static)
	if err != nil {
		return outcome{}, err
	}

	// Set-up, repeated; the last server stays up for the timed phase.
	var setups, puts, preps []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return outcome{}, err
			}
		}
		debug.FreeOSMemory() // as in prepareOnce
		t := time.Now()
		srv, err = startServer(cfg.workdir, mut.g, static.g)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		puts = append(puts, srv.put.Seconds())
		preps = append(preps, srv.prep.Seconds())
	}
	run := &serveRun{sched: newSchedule(mut.g, cfg.seed), writer: newClient(srv.http.URL), reader: newClient(srv.http.URL)}
	defer func() {
		if srv != nil {
			if err := srv.stop(); err != nil {
				logf("stopping graphd: %v", err)
			}
		}
	}()

	// Warm-up: one round, which also fills the result cache with the
	// repeat queries and the incremental engines with their state.
	k := 0
	for ; k < deleteEvery; k++ {
		run.step(k, false)
	}
	m0, err := run.reader.metrics()
	if err != nil {
		return outcome{}, err
	}
	st0 := srv.reg.Stats()
	var pm passMeter
	a := sampleRuntime()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		pm.start()
		for end := k + deleteEvery; k < end; k++ {
			run.step(k, true)
		}
		pm.stop(deleteEvery * (1 + len(incrApps) + len(hitQueries)))
	}
	b := sampleRuntime()
	logf("timed phase: %d rounds in %.1f s", len(pm.rates), time.Since(start).Seconds())
	m1, err := run.reader.metrics()
	if err != nil {
		return outcome{}, err
	}
	st1 := srv.reg.Stats()
	prepared, incr := core.PreparedCount(), core.IncrementalStateCount()
	heap := liveHeapMB()
	if err := srv.stop(); err != nil {
		return outcome{}, err
	}
	srv = nil

	recs := append(append([]reqRec(nil), run.recs[0]...), run.recs[1]...)
	var lat [nClasses][]float64
	timedOps := 0
	want := map[uint64]bool{}
	for _, r := range recs {
		if r.class != cIngest && r.class != cHit {
			want[r.epoch] = true
		}
		if r.timed {
			lat[r.class] = append(lat[r.class], ms(r.lat))
			timedOps++
		}
	}
	var replay *replayResult
	if cfg.trace {
		// The replay covers the first replaySteps epochs; their references
		// are needed either way.
		for e := uint64(1); e <= replaySteps; e++ {
			want[e] = true
		}
		if replay, err = runReplay(cfg, mut.g, run.sched); err != nil {
			return outcome{}, err
		}
	}
	t := time.Now()
	refs := serveRefs{hits: hits, epochs: epochRefs(run.sched, want)}
	logf("references for %d epochs: %.1f s", len(want), time.Since(t).Seconds())
	failed, msgs := checkServe(recs, refs)
	attempted := len(recs)
	if replay != nil {
		f, m := checkServe(replay.recs, refs)
		failed += f
		msgs = append(msgs, m...)
		attempted += len(replay.recs)
	}
	for _, m := range msgs {
		logf("FAILED %s", m)
	}
	out := outcome{correct: true, attempted: attempted, failed: failed, values: map[string]float64{}}
	v := out.values
	medians := make([]float64, nClasses)
	for c := range lat {
		medians[c] = median(lat[c])
		logf("class %-8s median %9.3f ms over %d requests", classNames[c], medians[c], len(lat[c]))
	}
	if !cfg.trace {
		v["setup_s"] = median(setups)
		v["op_geomean_ms"] = geomean(medians)
		pm.endToEnd(v)
		v["heap_mb"] = heap
		return out, nil
	}

	zeroLayers(v)
	n := float64(timedOps)
	v["trace.op_geomean_ms"] = geomean(medians)
	gcLayer(v, a, b, timedOps)
	v["core.prepare_s"] = median(preps)
	v["core.prepared_inputs"] = float64(prepared)
	v["core.incr_states"] = float64(incr)
	v["store.put_s"] = median(puts)
	v["store.resident_mb"] = float64(st1.ResidentBytes) / 1e6
	v["store.evictions_per_op"] = float64(st1.Evictions-st0.Evictions) / n
	v["service.hit_ms"] = medians[cHit]
	v["service.hit_p90_ms"] = p90(lat[cHit])
	v["service.ingest_ms"] = medians[cIngest]
	v["service.ingest_p90_ms"] = p90(lat[cIngest])
	v["service.fresh_ms"] = medians[cFresh]
	v["service.warm_ms"] = geomean(medians[cWarmCC : cWarmPR+1])
	runN, runMs := histDelta(m0, m1, "latency_bfs_gb", "latency_cc_gb", "latency_pr_gb")
	if runN > 0 {
		v["service.run_ms"] = runMs / runN
	}
	warmN, warmMs := histDelta(m0, m1, "latency_cc_gb", "latency_pr_gb")
	var warmClient float64
	for _, x := range append(append([]float64(nil), lat[cWarmCC]...), lat[cWarmPR]...) {
		warmClient += x
	}
	if warmN > 0 {
		v["service.overhead_ms"] = (warmClient - warmMs) / warmN
	}
	if req := counterDelta(m0, m1, "requests_total"); req > 0 {
		v["service.cache_hit_ratio"] = counterDelta(m0, m1, "cache_hits") / req
	}
	v["service.dedup_hits_per_op"] = counterDelta(m0, m1, "dedup_hits") / n
	v["service.runs_per_op"] = counterDelta(m0, m1, "runs_total") / n
	if !replay.report(v) {
		out.correct = false
	}
	return out, nil
}

// p90 is reported only for classes with at least 100 samples in the run.
func p90(xs []float64) float64 {
	if len(xs) < 100 {
		return 0
	}
	return quantile(xs, 0.9)
}

func counterDelta(m0, m1 map[string]any, name string) float64 {
	a, _ := m0[name].(float64)
	b, _ := m1[name].(float64)
	return b - a
}

// histDelta sums the count and sum_ms growth of the named /metrics
// histograms.
func histDelta(m0, m1 map[string]any, names ...string) (count, sumMs float64) {
	get := func(m map[string]any, name, field string) float64 {
		h, _ := m[name].(map[string]any)
		x, _ := h[field].(float64)
		return x
	}
	for _, name := range names {
		count += get(m1, name, "count") - get(m0, name, "count")
		sumMs += get(m1, name, "sum_ms") - get(m0, name, "sum_ms")
	}
	return count, sumMs
}

// replayResult is the traced replay of the ingest sequence straight
// through the store and core (no HTTP, no service).
type replayResult struct {
	recs        []reqRec
	appendMs    []float64
	materialize []float64
	prepare     []float64
	byApp       map[core.App][]float64 // Result.Elapsed of the incremental runs, ms
	fallbacks   int
	touched     int64
	acc         *traceAcc
}

// runReplay replays the first replaySteps batches of the run's schedule
// through Registry.Append -> Registry.Acquire(snapshot) -> core.Prepare ->
// core.RunCtx (incremental, with Registry.MutationView), timing each call
// from outside and tracing each run.
func runReplay(cfg config, base *graph.Graph, sched *schedule) (*replayResult, error) {
	const name = "replay"
	dir, err := os.MkdirTemp(cfg.workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := st.Put(name, base, nil); err != nil {
		return nil, err
	}
	reg := store.NewRegistry(store.RegistryConfig{Store: st, Budget: serveBudget})
	defer func() {
		for _, d := range reg.Datasets() {
			core.DropPrepared(d.Name, scale)
		}
		core.ResetIncremental(name)
	}()
	rr := &replayResult{byApp: map[core.App][]float64{}, acc: newTraceAcc(1)}
	for k := 0; k < replaySteps; k++ {
		t := time.Now()
		epoch, err := reg.Append(name, sched.batch(k))
		rr.appendMs = append(rr.appendMs, ms(time.Since(t)))
		rr.recs = append(rr.recs, reqRec{class: cIngest, epoch: uint64(k + 1), got: epoch, err: err})
		if err != nil {
			continue
		}
		snap := store.SnapshotName(name, epoch)
		in, err := reg.Input(snap)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		h, err := reg.Acquire(snap, scale)
		rr.materialize = append(rr.materialize, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		core.Prepare(in, scale)
		rr.prepare = append(rr.prepare, ms(time.Since(t)))
		for i, app := range incrApps {
			spec := core.RunSpec{App: app, System: core.GB, Variant: core.VIncremental, Input: in, Scale: scale,
				Threads: 1, Mutation: reg.MutationView(name, epoch)}
			tr := trace.NewWithCapacity(1 << 15)
			trace.Install(tr)
			t := time.Now()
			res := core.RunCtx(context.Background(), spec)
			d := time.Since(t)
			trace.Install(nil)
			rr.byApp[app] = append(rr.byApp[app], ms(res.Elapsed))
			rr.acc.add(0, cell{app: app, sys: core.GB}, tr, res, d, true)
			for _, ev := range tr.Events() {
				if ev.Cat != trace.CatDelta {
					continue
				}
				if ev.Op == "delta.fallback" {
					rr.fallbacks++
				} else {
					rr.touched += ev.NNZOut
				}
			}
			rec := reqRec{class: cFresh + i, epoch: epoch, app: app}
			rec.run.Outcome = res.Outcome.String()
			rec.run.Value = res.Value
			rec.run.Digest = strconv.FormatUint(res.Check, 16)
			if res.Err != nil {
				rec.run.Error = res.Err.Error()
			}
			rr.recs = append(rr.recs, rec)
		}
		h.Release()
	}
	return rr, nil
}

// report writes the replay's per-layer metrics (store, core snapshot
// preparation, the incremental lagraph runs and the layers under them).
func (rr *replayResult) report(v map[string]float64) bool {
	v["store.append_ms"] = median(rr.appendMs)
	v["store.materialize_ms"] = median(rr.materialize)
	v["core.snapshot_prepare_ms"] = median(rr.prepare)
	var cells []cell
	var medians []float64
	for _, app := range incrApps {
		cells = append(cells, cell{app: app, sys: core.GB})
		medians = append(medians, median(rr.byApp[app]))
	}
	v["lagraph.incr_run_ms"] = geomean(medians)
	runs := float64(len(incrApps) * len(rr.byApp[incrApps[0]]))
	v["lagraph.delta_fallbacks_per_op"] = float64(rr.fallbacks) / runs
	v["lagraph.delta_touched_per_op"] = float64(rr.touched) / runs
	return rr.acc.report(v, cells, medians)
}
