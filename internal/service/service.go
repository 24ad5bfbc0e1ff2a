// Package service is graphd's serving subsystem: it wraps core.RunCtx
// behind an HTTP JSON API and manages execution with a bounded admission
// queue (backpressure instead of unbounded goroutines), a fixed-size worker
// pool that owns all run calls, request deduplication (concurrent identical
// specs share one execution), and an LRU result cache. The stages compose
// as admission -> dedup -> cache -> queue -> worker pool, with metrics at
// every seam.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/service/metrics"
	"graphstudy/internal/store"
	"graphstudy/internal/trace"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; HTTP callers translate it to 429 + Retry-After.
var ErrQueueFull = errors.New("service: admission queue full")

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the worker pool size; each worker owns one core.RunCtx at
	// a time (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 64). Submissions
	// beyond workers + queue depth are rejected with ErrQueueFull.
	QueueDepth int
	// CacheSize bounds the LRU result cache (default 128 entries; <= 0
	// after defaulting disables caching — use -1 to request that).
	CacheSize int
	// DefaultThreads is the per-run thread count when a request does not
	// name one (default 4).
	DefaultThreads int
	// DefaultTimeout bounds runs that do not carry their own deadline
	// (default 5 minutes).
	DefaultTimeout time.Duration
	// MaxTimeout caps any client-requested deadline (default 1 hour).
	MaxTimeout time.Duration
	// JobRetention is how many jobs /v1/jobs can look up before the oldest
	// completed ones are forgotten (default 1024).
	JobRetention int
	// Registry, when set, is the dataset subsystem: graph names resolve
	// through it (store datasets become servable alongside the generated
	// suite), every run holds a refcounted lease on its input so the
	// memory budget cannot evict a graph mid-run, and its hit/miss/
	// eviction/bytes counters join /metrics.
	Registry *store.Registry
	// TraceDir enables profiling mode: every execution records an
	// operator-level trace (internal/trace) persisted as Chrome trace-event
	// JSON at <TraceDir>/<job-id>.json and served by
	// GET /v1/jobs/{id}/trace. Because trace installation is global,
	// profiling mode serializes worker executions — throughput drops to one
	// run at a time so spans from concurrent jobs cannot interleave.
	TraceDir string
	// Runner executes one measurement; tests substitute a gated runner.
	// Defaults to core.RunCtx.
	Runner func(ctx context.Context, spec core.RunSpec) core.Result
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.DefaultThreads <= 0 {
		c.DefaultThreads = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Hour
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 1024
	}
	if c.Runner == nil {
		c.Runner = core.RunCtx
	}
	return c
}

// Server is the serving subsystem: admission, dedup, cache, worker pool,
// and metrics. Create with New, serve with Handler, stop with Close.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	cache *resultCache
	jobs  *jobStore
	queue chan *Job

	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	inFlight atomic.Int64
	started  time.Time

	// avgRunNs is an EWMA of completed run durations (nanoseconds); the
	// Retry-After hint derives queue drain time from it.
	avgRunNs atomic.Int64

	// traceMu serializes executions when TraceDir is set: the trace is a
	// process-global installation, so only one traced run may be in flight.
	traceMu sync.Mutex

	closeOnce sync.Once
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   newResultCache(cfg.CacheSize, reg),
		jobs:    newJobStore(cfg.JobRetention),
		queue:   make(chan *Job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		started: time.Now(),
	}
	reg.Gauge("queue_depth", func() int64 { return int64(len(s.queue)) })
	reg.Gauge("workers", func() int64 { return int64(cfg.Workers) })
	reg.Gauge("workers_busy", func() int64 { return s.inFlight.Load() })
	reg.Gauge("uptime_seconds", func() int64 { return int64(time.Since(s.started).Seconds()) })
	if cfg.Registry != nil {
		cfg.Registry.RegisterMetrics(reg)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's registry (the /metrics handler and tests
// read it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close stops the workers. Queued jobs are completed with an ERR outcome so
// no waiter hangs; the running jobs' contexts are canceled, which the round
// loops observe as a timeout.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		close(s.queue)
		for j := range s.queue { // complete jobs the workers will never see
			j.complete(core.Result{
				Spec: j.Spec, Outcome: core.ERR,
				Err: errors.New("service: shut down before execution"),
			}, false)
			s.jobs.settle(j)
		}
	})
	s.wg.Wait()
}

// Submit admits a run request. The fast paths return a completed job
// without touching the queue: a result-cache hit, or attachment to an
// in-flight identical job (singleflight). Otherwise the job must win a
// bounded queue slot; when the queue is full, Submit returns ErrQueueFull
// immediately — the service never buffers unboundedly.
func (s *Server) Submit(spec core.RunSpec) (*Job, error) {
	key := Key{
		App:     spec.App,
		System:  spec.System,
		Variant: spec.Variant,
		Graph:   spec.Input.Name,
		Scale:   spec.Scale.String(),
	}
	s.reg.Counter("requests_total").Inc()

	// The cache is consulted before the singleflight table, so a cached
	// key is always a cache hit: it never attaches, as a dedup hit, to an
	// identical request that is itself only on its way to the cache.
	if res, ok := s.cache.Get(key); ok {
		job := s.jobs.create(key, spec)
		job.complete(res, true)
		return job, nil
	}

	job, attached := s.jobs.getOrCreate(key, spec)
	if attached {
		s.reg.Counter("dedup_hits").Inc()
		return job, nil
	}

	// The job that was in flight for key may have finished between the
	// lookup above and getOrCreate; execute caches a result before it
	// settles the job, so the result is there now.
	if res, ok := s.cache.recheck(key); ok {
		s.jobs.settle(job)
		job.complete(res, true)
		return job, nil
	}

	select {
	case s.queue <- job:
		return job, nil
	default:
		// A request may have attached to this job between creation and
		// rejection; completing with ErrQueueFull wakes it with the same
		// backpressure signal the submitter gets.
		s.jobs.abandon(job)
		job.complete(core.Result{Spec: spec, Outcome: core.ERR, Err: ErrQueueFull}, false)
		s.reg.Counter("queue_rejects").Inc()
		return nil, ErrQueueFull
	}
}

// worker drains the admission queue; the pool is the only place core.RunCtx
// is ever called, so concurrency is bounded by construction.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.execute(job)
	}
}

// execute runs one job and publishes its result to all attached waiters,
// the cache, and the metrics registry. When a dataset registry is attached,
// the run holds a lease on its input graph for the duration so the memory
// budget evicts only idle graphs.
func (s *Server) execute(job *Job) {
	job.state.Store(int32(JobRunning))
	s.inFlight.Add(1)
	s.reg.Counter("runs_total").Inc()

	if s.cfg.Registry != nil {
		h, err := s.cfg.Registry.Acquire(job.Spec.Input.Name, job.Spec.Scale)
		if err != nil {
			s.inFlight.Add(-1)
			s.reg.Counter("outcome_" + core.ERR.String()).Inc()
			s.jobs.settle(job)
			job.complete(core.Result{Spec: job.Spec, Outcome: core.ERR,
				Err: fmt.Errorf("service: loading dataset: %w", err)}, false)
			return
		}
		defer h.Release()
	}

	spec := job.Spec
	var tr *trace.Trace
	if s.cfg.TraceDir != "" {
		// Profiling mode: one traced run at a time (trace installation is
		// global), each recording into a fresh Trace.
		s.traceMu.Lock()
		defer s.traceMu.Unlock()
		tr = trace.New()
		spec.Trace = tr
	}

	start := time.Now()
	res := s.cfg.Runner(s.baseCtx, spec)
	elapsed := time.Since(start)

	if tr != nil {
		if path, err := s.persistTrace(job.ID, tr); err != nil {
			s.reg.Counter("trace_write_errors").Inc()
		} else {
			job.TracePath = path
		}
	}

	s.inFlight.Add(-1)
	s.reg.Counter("outcome_" + res.Outcome.String()).Inc()
	s.reg.Histogram(latencyName(job.Spec.App, job.Spec.System)).Observe(elapsed)
	s.observeRunDuration(elapsed)

	s.cache.Put(job.Key, res)
	s.jobs.settle(job)
	job.complete(res, false)
}

// persistTrace writes tr as Chrome trace-event JSON under the configured
// trace directory and returns the file path.
func (s *Server) persistTrace(jobID string, tr *trace.Trace) (string, error) {
	if err := os.MkdirAll(s.cfg.TraceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(s.cfg.TraceDir, jobID+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// latencyName is the per-(app, system) histogram key, e.g.
// "latency_bfs_ls".
func latencyName(app core.App, sys core.System) string {
	return fmt.Sprintf("latency_%s_%s", app, core.Label(sys, core.VDefault))
}

// Graphs returns the suite catalog served by /v1/graphs. It is the same
// listing the examples and generator binaries use (gen.Catalog), so the
// service cannot drift from the generators.
func (s *Server) Graphs() []gen.CatalogEntry { return gen.Catalog() }

// Datasets returns the dataset-store listing served by /v1/datasets: every
// stored dataset plus resident generated graphs. Without a registry the
// listing is empty.
func (s *Server) Datasets() []store.DatasetInfo {
	if s.cfg.Registry == nil {
		return []store.DatasetInfo{}
	}
	return s.cfg.Registry.Datasets()
}

// resolveInput maps a request's graph name to an Input: through the dataset
// registry when one is attached (suite names plus store datasets), else the
// generated suite only.
func (s *Server) resolveInput(name string) (*gen.Input, error) {
	if s.cfg.Registry != nil {
		return s.cfg.Registry.Input(name)
	}
	return gen.ByName(name)
}
