package core

import (
	"sync"

	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/trace"
)

// MutationView ties a run to the mutation lineage of its input: the input
// is the Base graph as of Epoch, and Deltas resolves the net edge changes
// between two epochs of that lineage. The store's registry builds these
// (Registry.MutationView); tests build them over in-memory edge lists. A
// nil MutationView on a VIncremental spec runs from scratch and keeps no
// state.
type MutationView struct {
	// Base names the mutating graph; incremental state is keyed by it (plus
	// app, system, and thread count, since cross-system float results only
	// agree quantized, not bitwise).
	Base string
	// Epoch is the delta-log epoch the input snapshot reflects.
	Epoch uint64
	// Deltas returns the net edge additions and deletions that transform
	// the snapshot at `from` into the snapshot at `to`, or ok=false when
	// the range is unresolvable (e.g. compacted away).
	Deltas func(from, to uint64) (adds, dels []graph.Edge, ok bool)
}

// incrKey scopes stored state to one lineage and one execution flavor.
// Threads is part of the key because parallel float reductions are only
// bit-reproducible within a fixed worker count.
type incrKey struct {
	base    string
	app     App
	sys     System
	threads int
}

// incrState is the previous snapshot's answer in replayable form.
type incrState struct {
	epoch  uint64
	n      int
	src    uint32                 // bfs only
	levels []uint32               // bfs
	labels []uint32               // cc
	traj   []*grb.Vector[float64] // pr residual trajectory
}

var (
	incrMu    sync.Mutex
	incrCache = map[incrKey]*incrState{}
)

func specIncrKey(spec RunSpec) incrKey {
	return incrKey{base: spec.Mutation.Base, app: spec.App, sys: spec.System, threads: spec.Threads}
}

// ResetIncremental drops stored incremental state for one base graph, or
// all state when base is empty. The registry calls it on compaction-driven
// invalidation; tests call it for isolation.
func ResetIncremental(base string) {
	incrMu.Lock()
	defer incrMu.Unlock()
	for k := range incrCache {
		if base == "" || k.base == base {
			delete(incrCache, k)
		}
	}
}

// IncrementalStateCount reports how many lineage states are cached
// (introspection for tests and the /v1/stats handler).
func IncrementalStateCount() int {
	incrMu.Lock()
	defer incrMu.Unlock()
	return len(incrCache)
}

// incrTake fetches the stored state for the spec's lineage together with
// the net additions bridging it to the requested epoch. warm=false means
// incremental reuse is unsound here and the caller must run from scratch:
// no mutation view, no stored state, stored state ahead of the request, an
// unresolvable delta range, or deletions in the delta (a deletion can
// invalidate arbitrary parts of a prior answer). The state itself is
// treated as immutable once stored; callers never write through it.
func incrTake(spec RunSpec) (st *incrState, adds []graph.Edge, warm bool) {
	mv := spec.Mutation
	if mv == nil {
		return nil, nil, false
	}
	incrMu.Lock()
	st = incrCache[specIncrKey(spec)]
	incrMu.Unlock()
	if st == nil || st.epoch > mv.Epoch {
		return st, nil, false
	}
	adds, dels, ok := mv.Deltas(st.epoch, mv.Epoch)
	if !ok || len(dels) > 0 {
		return st, nil, false
	}
	return st, adds, true
}

// incrStore publishes the state for the next epoch's run. Last writer wins:
// concurrent runs on the same lineage are allowed, and whichever finishes
// last leaves its (self-consistent) snapshot behind.
func incrStore(spec RunSpec, st *incrState) {
	if spec.Mutation == nil {
		return
	}
	st.epoch = spec.Mutation.Epoch
	incrMu.Lock()
	incrCache[specIncrKey(spec)] = st
	incrMu.Unlock()
}

// incrFallback records that a VIncremental run could not reuse prior state
// and is recomputing from scratch, so the decision is auditable from the
// trace (NNZOut carries the full problem size that had to be redone).
func incrFallback(reason string, n int) {
	sp := trace.Begin(trace.CatDelta, "delta.fallback")
	sp.NNZOut = int64(n)
	_ = reason // named for the call sites; the span op is the audit record
	sp.End()
}

// fallbackForm returns a Prepared form that only a from-scratch run reads.
// formsFor leaves it out of an incremental run's pre-clock preparation, so
// a fallback builds it inside its timed region; the delta.fallback.prepare
// span attributes that time (NNZOut 0: no delta work is redone here).
func fallbackForm[T any](get func() T) T {
	sp := trace.Begin(trace.CatDelta, "delta.fallback.prepare")
	v := get()
	sp.End()
	return v
}

// runIncrementalBFS answers BFS for the spec's snapshot, warm-starting from
// the previous snapshot's levels when the delta is additions-only.
func runIncrementalBFS(ctx *grb.Context, p *Prepared, spec RunSpec) ([]uint32, int, error) {
	n := int(p.G.NumNodes)
	st, adds, warm := incrTake(spec)
	if warm && st.src == p.Src && len(st.levels) == n {
		// The (min, hop) relaxation ignores matrix values, so the prepared
		// weight matrix serves directly — no per-run cast of the pattern.
		levels, r, err := lagraph.IncrementalBFS(ctx, p.AW32(), int(p.Src), st.levels, adds)
		if err != nil {
			return nil, r, err
		}
		incrStore(spec, &incrState{n: n, src: p.Src, levels: levels})
		return levels, r, nil
	}
	if spec.Mutation != nil {
		incrFallback("bfs", n)
	}
	dist, r, err := lagraph.BFS(ctx, fallbackForm(p.ABool), int(p.Src))
	if err != nil {
		return nil, r, err
	}
	levels := lagraph.BFSLevels(dist)
	incrStore(spec, &incrState{n: n, src: p.Src, levels: levels})
	return levels, r, nil
}

// runIncrementalCC answers connected components for the spec's snapshot.
// Additions only merge components, so the warm path is a union-find over
// the previous labels — work proportional to the delta.
func runIncrementalCC(ctx *grb.Context, p *Prepared, spec RunSpec) ([]uint32, int, error) {
	n := int(p.G.NumNodes)
	st, adds, warm := incrTake(spec)
	if warm && len(st.labels) == n {
		labels := lagraph.IncrementalCC(st.labels, adds)
		incrStore(spec, &incrState{n: n, labels: labels})
		return labels, 0, nil
	}
	if spec.Mutation != nil {
		incrFallback("cc", n)
	}
	f, r, err := lagraph.CCFastSV(ctx, fallbackForm(p.ASymU32))
	if err != nil {
		return nil, r, err
	}
	labels := lagraph.Labels(f)
	incrStore(spec, &incrState{n: n, labels: labels})
	return labels, r, nil
}

// runIncrementalPR answers pagerank for the spec's snapshot using the
// delta-residual formulation (gb-res): the warm path replays the stored
// residual trajectory, recomputing only the dirty closure of the mutated
// endpoints, and is bit-identical to PageRankResidual on the new snapshot.
func runIncrementalPR(ctx *grb.Context, p *Prepared, spec RunSpec) (*grb.Vector[float64], int, error) {
	opt := lagraph.DefaultPageRankOptions()
	n := int(p.G.NumNodes)
	st, adds, warm := incrTake(spec)
	if warm && st.n == n && len(st.traj) == opt.Iterations {
		pr, traj, err := lagraph.IncrementalPageRank(ctx, p.AFloat(), opt, st.traj, adds)
		if err != nil {
			return nil, opt.Iterations, err
		}
		incrStore(spec, &incrState{n: n, traj: traj})
		return pr, opt.Iterations, nil
	}
	if spec.Mutation != nil {
		incrFallback("pr", n)
	}
	pr, traj, err := lagraph.PageRankResidualTraj(ctx, p.AFloat(), opt)
	if err != nil {
		return nil, opt.Iterations, err
	}
	incrStore(spec, &incrState{n: n, traj: traj})
	return pr, opt.Iterations, nil
}
