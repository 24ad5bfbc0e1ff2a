package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BenchSchema identifies the BENCH_*.json document format.
const BenchSchema = "graphstudy-bench/v1"

// BenchReport is the machine-readable perf snapshot a PR commits as
// BENCH_<n>.json and CI regenerates to gate regressions. One schema
// covers both halves of the paper's argument: the serving path (graphd
// under seeded load, from cmd/graphbench) and the kernel path (per-app
// kernel time and bytes materialized from internal/trace aggregates,
// from `gentables -exp bench`). Either half may be absent while the
// other is being produced; the gate compares whatever both files carry.
type BenchReport struct {
	Schema   string        `json:"schema"`
	Seed     uint64        `json:"seed,omitempty"`
	Scenario string        `json:"scenario,omitempty"`
	Serving  *ServingBench `json:"serving,omitempty"`
	Kernels  []KernelBench `json:"kernels,omitempty"`
}

// ServingBench is the serving-path half: outcome counts and the latency
// distribution of one scenario run against graphd.
type ServingBench struct {
	Requests  int `json:"requests"`
	OK        int `json:"ok"`
	Timeouts  int `json:"timeouts"`
	Errors    int `json:"errors"`
	TooMany   int `json:"too_many"`
	CacheHits int `json:"cache_hits"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatP50Ms      float64 `json:"lat_p50_ms"`
	LatP99Ms      float64 `json:"lat_p99_ms"`
	ServerP99Ms   float64 `json:"server_p99_ms,omitempty"`

	QueueRejects int64 `json:"queue_rejects"`
	DedupHits    int64 `json:"dedup_hits"`
	RunsTotal    int64 `json:"runs_total"`
}

// KernelBench is one offline traced measurement: an (app, system, graph)
// cell with its deterministic signature (digest, rounds, bytes) and its
// noisy signal (elapsed and kernel time).
type KernelBench struct {
	App    string `json:"app"`
	System string `json:"system"`
	// Variant distinguishes alternative implementations on the same
	// system (e.g. the fused lazy-DAG column); empty means the default.
	Variant string `json:"variant,omitempty"`
	Graph   string `json:"graph"`
	Scale   string `json:"scale"`

	ElapsedMs float64 `json:"elapsed_ms"`
	// KernelMs is the summed duration of every CatKernel span.
	KernelMs float64 `json:"kernel_ms"`
	Rounds   int     `json:"rounds"`
	// RoundsMin and RoundsMax are set only on cells whose Rounds counts
	// schedule-dependent work (see scheduleBounds): RoundsMin > 0 marks
	// such a cell and bounds Rounds from below under every schedule,
	// RoundsMax (0: none) from above. The gate checks Rounds against them
	// instead of comparing it with the baseline exactly.
	RoundsMin int `json:"rounds_min,omitempty"`
	RoundsMax int `json:"rounds_max,omitempty"`
	// Bytes is the trace's total bytes materialized — the paper's
	// headline per-kernel cost, and deterministic at a fixed worker
	// count.
	Bytes int64 `json:"bytes"`
	// BytesElided is the trace's total bytes the fusion compiler proved
	// it did not have to materialize (zero for eager cells). Like Bytes
	// it is deterministic at a fixed worker count.
	BytesElided int64 `json:"bytes_elided,omitempty"`
	// Check is the run's result digest in hex. Deterministic kernels
	// mean a digest change is a correctness regression, not noise.
	Check string `json:"check"`
}

// key orders and identifies kernel cells. The variant segment is
// omitted when empty so default-cell keys match pre-variant baselines.
func (k KernelBench) key() string {
	sys := k.System
	if k.Variant != "" {
		sys += ":" + k.Variant
	}
	return k.App + "/" + sys + "/" + k.Graph + "/" + k.Scale
}

// roundsInBounds reports whether a schedule-dependent cell's Rounds lies
// within its recorded bounds.
func (k KernelBench) roundsInBounds() bool {
	return k.Rounds >= k.RoundsMin && (k.RoundsMax == 0 || k.Rounds <= k.RoundsMax)
}

// ReadBenchFile parses a BENCH_*.json document.
func ReadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, BenchSchema)
	}
	return &r, nil
}

// WriteBenchFile writes the report as stable, indented JSON: kernels are
// sorted by key so the committed baseline diffs cleanly.
func WriteBenchFile(path string, r *BenchReport) error {
	r.Schema = BenchSchema
	sort.Slice(r.Kernels, func(i, j int) bool { return r.Kernels[i].key() < r.Kernels[j].key() })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MergeBenchFile updates path in place: it loads the existing report if
// present (any schema error is fatal — a corrupt bench file should not
// be silently replaced) and applies fn to it before writing back. Used
// by graphbench (fills Serving) and gentables (fills Kernels) so the two
// producers can build one file in either order.
func MergeBenchFile(path string, fn func(*BenchReport)) error {
	r := &BenchReport{Schema: BenchSchema}
	if _, err := os.Stat(path); err == nil {
		existing, err := ReadBenchFile(path)
		if err != nil {
			return err
		}
		r = existing
	}
	fn(r)
	return WriteBenchFile(path, r)
}

// Tolerances configures the gate. Latency and time comparisons are
// multiplicative with an absolute floor — fresh may not exceed
// base*Factor + FloorMs — so millisecond-scale noise cannot trip a gate
// on a fast machine, while a real blow-up still fails even from a tiny
// base. Deterministic fields (digest, rounds, request counts) are exact.
type Tolerances struct {
	// TimeFactor/TimeFloorMs bound kernel and serving latency growth.
	TimeFactor  float64
	TimeFloorMs float64
	// BytesFactor bounds bytes-materialized growth (near-deterministic;
	// keep tight).
	BytesFactor float64
	// MaxErrorRate bounds the serving error fraction of the fresh run
	// absolutely (a baseline with zero errors must not forbid noise-free
	// CI forever, so this is not relative).
	MaxErrorRate float64
}

// DefaultTolerances are the loose, CI-noise-tolerant bounds `make
// bench-gate` uses: deterministic regressions always fail; timing must
// regress by an order of magnitude (or the floor) to fail.
func DefaultTolerances() Tolerances {
	return Tolerances{
		TimeFactor:   10,
		TimeFloorMs:  1000,
		BytesFactor:  1.10,
		MaxErrorRate: 0,
	}
}

// Compare gates fresh against base and returns one finding per violated
// bound, formatted like lint findings. An empty result is a pass.
func Compare(base, fresh *BenchReport, tol Tolerances) []string {
	var out []string
	f := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	overTime := func(baseMs, freshMs float64) bool {
		return freshMs > baseMs*tol.TimeFactor+tol.TimeFloorMs
	}

	if base.Serving != nil {
		if fresh.Serving == nil {
			f("serving: baseline has a serving section but the fresh run does not")
		} else {
			b, n := base.Serving, fresh.Serving
			if n.Requests != b.Requests {
				f("serving.requests: fresh %d != baseline %d (seeded scenario must replay the same sequence)", n.Requests, b.Requests)
			}
			if b.Requests > 0 {
				if rate := float64(n.Errors) / float64(max(n.Requests, 1)); rate > tol.MaxErrorRate {
					f("serving.errors: fresh error rate %.3f (%d/%d) exceeds %.3f", rate, n.Errors, n.Requests, tol.MaxErrorRate)
				}
			}
			if overTime(b.LatP50Ms, n.LatP50Ms) {
				f("serving.lat_p50_ms: fresh %.2f > baseline %.2f * %.1f + %.0fms", n.LatP50Ms, b.LatP50Ms, tol.TimeFactor, tol.TimeFloorMs)
			}
			if overTime(b.LatP99Ms, n.LatP99Ms) {
				f("serving.lat_p99_ms: fresh %.2f > baseline %.2f * %.1f + %.0fms", n.LatP99Ms, b.LatP99Ms, tol.TimeFactor, tol.TimeFloorMs)
			}
			if b.ServerP99Ms > 0 && overTime(b.ServerP99Ms, n.ServerP99Ms) {
				f("serving.server_p99_ms: fresh %.2f > baseline %.2f * %.1f + %.0fms", n.ServerP99Ms, b.ServerP99Ms, tol.TimeFactor, tol.TimeFloorMs)
			}
		}
	}

	freshKernels := map[string]KernelBench{}
	for _, k := range fresh.Kernels {
		freshKernels[k.key()] = k
	}
	for _, b := range base.Kernels {
		n, ok := freshKernels[b.key()]
		if !ok {
			f("kernels[%s]: present in baseline, missing from fresh run", b.key())
			continue
		}
		if n.Check != b.Check {
			f("kernels[%s].check: digest %s != baseline %s — the answer changed, not just the speed", b.key(), n.Check, b.Check)
		}
		if n.RoundsMin > 0 {
			if !n.roundsInBounds() {
				f("kernels[%s].rounds: fresh %d outside its schedule-independent bounds [%d, %d]", b.key(), n.Rounds, n.RoundsMin, n.RoundsMax)
			}
		} else if n.Rounds != b.Rounds {
			f("kernels[%s].rounds: fresh %d != baseline %d", b.key(), n.Rounds, b.Rounds)
		}
		if tol.BytesFactor > 0 && float64(n.Bytes) > float64(b.Bytes)*tol.BytesFactor {
			f("kernels[%s].bytes: fresh %d > baseline %d * %.2f (materialization regression)", b.key(), n.Bytes, b.Bytes, tol.BytesFactor)
		}
		if n.BytesElided != b.BytesElided {
			f("kernels[%s].bytes_elided: fresh %d != baseline %d — the fusion planner's coverage changed", b.key(), n.BytesElided, b.BytesElided)
		}
		if overTime(b.KernelMs, n.KernelMs) {
			f("kernels[%s].kernel_ms: fresh %.2f > baseline %.2f * %.1f + %.0fms", b.key(), n.KernelMs, b.KernelMs, tol.TimeFactor, tol.TimeFloorMs)
		}
		if overTime(b.ElapsedMs, n.ElapsedMs) {
			f("kernels[%s].elapsed_ms: fresh %.2f > baseline %.2f * %.1f + %.0fms", b.key(), n.ElapsedMs, b.ElapsedMs, tol.TimeFactor, tol.TimeFloorMs)
		}
	}
	return out
}
