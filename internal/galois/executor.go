package galois

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphstudy/internal/trace"
)

// RangeBody is the body of a blocked parallel loop: it processes iterations
// [lo, hi) on the worker identified by ctx.TID.
type RangeBody func(lo, hi int, ctx *Ctx)

// Executor schedules parallel loops over index ranges. Two implementations
// model the two runtimes of the study:
//
//   - Static partitions the range into one contiguous block per thread,
//     like OpenMP's static schedule used by SuiteSparse.
//   - WorkStealing hands out chunks dynamically from a shared counter,
//     like the Galois runtime's chunked self-scheduling with stealing.
//
// An Executor instance must not be used for overlapping ForRange calls
// (nested parallelism is not supported, matching the study's usage).
type Executor interface {
	// ForRange executes body over [0, n) in chunks of about grain
	// iterations. grain <= 0 selects a default.
	ForRange(n int, grain int, body RangeBody)
	// Threads returns the worker count of this executor.
	Threads() int
	// Name identifies the scheduling policy ("static" or "steal").
	Name() string
}

// regionHook, when non-nil, observes per-thread work tallies of every
// parallel region. Set by the stats collector in stats.go.
var regionHook atomic.Pointer[regionObserver]

type regionObserver struct {
	fn func(perThread []int64)
}

func observeRegion(slots []padCounter, t int) {
	h := regionHook.Load()
	if h == nil {
		return
	}
	per := make([]int64, t)
	for i := 0; i < t; i++ {
		per[i] = slots[i].v
	}
	h.fn(per)
}

// Static is the OpenMP-static-like executor: thread i processes the i-th
// contiguous block of the range regardless of per-iteration cost.
type Static struct {
	t     int
	slots []padCounter
}

// NewStatic returns a Static executor with t workers (t<=0 means the
// configured default).
func NewStatic(t int) *Static {
	if t <= 0 {
		t = Threads()
	}
	return &Static{t: t, slots: make([]padCounter, t)}
}

func (e *Static) Threads() int { return e.t }
func (e *Static) Name() string { return "static" }

// ForRange splits [0, n) into t contiguous blocks. grain is ignored except
// that each thread also counts its iterations as work.
func (e *Static) ForRange(n int, grain int, body RangeBody) {
	if n <= 0 {
		return
	}
	sp := trace.Begin(trace.CatRegion, "galois.ForRange.static")
	sp.Items = int64(n)
	defer sp.End()
	t := e.t
	if t > n {
		t = n
	}
	sp.Workers = int64(t)
	for i := range e.slots {
		e.slots[i].v = 0
	}
	var wg sync.WaitGroup
	wg.Add(t)
	for tid := 0; tid < t; tid++ {
		lo := tid * n / t
		hi := (tid + 1) * n / t
		go func(tid, lo, hi int) {
			defer wg.Done()
			ctx := &Ctx{TID: tid, work: &e.slots[tid].v}
			ctx.Work(int64(hi - lo))
			body(lo, hi, ctx)
		}(tid, lo, hi)
	}
	wg.Wait()
	observeRegion(e.slots, e.t)
}

// WorkStealing is the Galois-like executor: workers repeatedly claim the
// next chunk of grain iterations from a shared counter, so cost imbalance
// between iterations is smoothed dynamically.
type WorkStealing struct {
	t     int
	slots []padCounter
}

// NewWorkStealing returns a WorkStealing executor with t workers (t<=0
// means the configured default).
func NewWorkStealing(t int) *WorkStealing {
	if t <= 0 {
		t = Threads()
	}
	return &WorkStealing{t: t, slots: make([]padCounter, t)}
}

func (e *WorkStealing) Threads() int { return e.t }
func (e *WorkStealing) Name() string { return "steal" }

// ForRange hands out chunks of grain iterations from an atomic cursor.
func (e *WorkStealing) ForRange(n int, grain int, body RangeBody) {
	if n <= 0 {
		return
	}
	sp := trace.Begin(trace.CatRegion, "galois.ForRange.steal")
	sp.Items = int64(n)
	defer sp.End()
	if grain <= 0 {
		grain = DefaultGrain(n, e.t)
	}
	t := e.t
	if (n+grain-1)/grain < t {
		t = (n + grain - 1) / grain
	}
	sp.Workers = int64(t)
	for i := range e.slots {
		e.slots[i].v = 0
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(t)
	for tid := 0; tid < t; tid++ {
		go func(tid int) {
			defer wg.Done()
			ctx := &Ctx{TID: tid, work: &e.slots[tid].v}
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				ctx.Work(int64(hi - lo))
				body(lo, hi, ctx)
				// Yield between chunks so workers interleave even when the
				// host has fewer cores than workers; this keeps the dynamic
				// chunk distribution (and thus the work/span model feeding
				// the scaling figure) faithful to a true multicore run.
				runtime.Gosched()
			}
		}(tid)
	}
	wg.Wait()
	// Chunks claimed beyond each worker's first are dynamic (re)distribution:
	// the steal analog of the chunked self-scheduling loop.
	if chunks := (n + grain - 1) / grain; chunks > t {
		sp.Steals = int64(chunks - t)
	}
	observeRegion(e.slots, e.t)
}

// Serial runs every loop inline on the calling goroutine, as TID 0, without
// allocating. Standing in for t workers, it runs Static(t)'s parts in turn,
// each charged to its worker's tally, so CollectStats records what Static(t)
// would and the modeled scaling figures keep their meaning.
type Serial struct {
	slots []padCounter
	ctx   Ctx
}

// NewSerial returns a single-threaded executor.
func NewSerial() *Serial { return NewSerialFor(1) }

// NewSerialFor returns a Serial standing in for t workers (t <= 0 means 1).
func NewSerialFor(t int) *Serial { return &Serial{slots: make([]padCounter, max(t, 1))} }

func (e *Serial) Threads() int { return 1 }
func (e *Serial) Name() string { return "serial" }

func (e *Serial) ForRange(n int, grain int, body RangeBody) {
	if n <= 0 {
		return
	}
	sp := trace.Begin(trace.CatRegion, "galois.ForRange.serial")
	sp.Items = int64(n)
	sp.Workers = 1
	defer sp.End()
	t := min(len(e.slots), n)
	clear(e.slots)
	for tid := 0; tid < t; tid++ {
		lo, hi := tid*n/t, (tid+1)*n/t
		e.ctx.work = &e.slots[tid].v
		e.ctx.Work(int64(hi - lo))
		body(lo, hi, &e.ctx)
	}
	observeRegion(e.slots, len(e.slots))
}
