package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rng is splitmix64: every input and schedule derives from -seed through it.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0x9E3779B97F4A7C15)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive entries of xs (0 if none).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procCPU is the process's user+system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a snapshot of the garbage collector's counters.
type rtSample struct {
	gcCycles uint64
	gcCPU    float64 // seconds
	gcPause  uint64  // ns, from MemStats
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sampleRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSample{
		gcCycles: ss[0].Value.Uint64(),
		gcCPU:    ss[1].Value.Float64(),
		gcPause:  m.PauseTotalNs,
	}
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// passMeter measures the end-to-end rates of each pass (one round of every
// operation class) and reports their medians, so a burst of interference
// on the host moves a pass or two rather than the run's figure.
type passMeter struct {
	t      time.Time
	cpu    time.Duration
	alloc  uint64
	rates  []float64 // ops per second
	cpus   []float64 // process CPU ms per op
	allocs []float64 // heap MB allocated per op
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (m *passMeter) start() { m.t, m.cpu, m.alloc = time.Now(), procCPU(), heapAllocs() }

func (m *passMeter) stop(ops int) {
	n := float64(ops)
	m.rates = append(m.rates, n/time.Since(m.t).Seconds())
	m.cpus = append(m.cpus, ms(procCPU()-m.cpu)/n)
	m.allocs = append(m.allocs, float64(heapAllocs()-m.alloc)/1e6/n)
}

func (m *passMeter) endToEnd(v map[string]float64) {
	v["ops_per_s"] = median(m.rates)
	v["cpu_ms_per_op"] = median(m.cpus)
	v["alloc_mb_per_op"] = median(m.allocs)
}

// gcLayer writes the runtime layer's metrics over a timed phase of ops
// operations delimited by two samples.
func gcLayer(v map[string]float64, a, b rtSample, ops int) {
	n := float64(ops)
	v["runtime.gc_cycles_per_op"] = float64(b.gcCycles-a.gcCycles) / n
	v["runtime.gc_pause_ms_per_op"] = float64(b.gcPause-a.gcPause) / 1e6 / n
	v["runtime.gc_cpu_ms_per_op"] = (b.gcCPU - a.gcCPU) * 1e3 / n
}
