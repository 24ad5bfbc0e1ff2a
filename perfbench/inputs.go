package main

import (
	"runtime/debug"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// scale is the cache key every benchmark input is prepared under; the
// graphs themselves come from the generators with the parameters below.
const scale = gen.ScaleBench

// graphSpec is one seeded generator instance.
type graphSpec struct {
	name string
	// grid parameters (rows = cols, subdivision; rows > 0 selects gen.Grid)
	// or the gen.RMAT scale.
	rows, subdiv int
	rmatScale    int
	// road applies the study's road-network parameters (source vertex 0,
	// ktruss k=4) instead of the defaults (max out-degree source, k=7).
	road bool
}

func (s graphSpec) generate(seed uint64) *graph.Graph {
	var g *graph.Graph
	if s.rows > 0 {
		g = gen.Grid(s.rows, s.rows, s.subdiv, true, 1000, seed)
	} else {
		g = gen.RMAT(s.rmatScale, 16, 0.57, 0.19, 0.19, true, 255, seed)
	}
	g.SortAdjacency()
	g.BuildIn()
	return g
}

// input is one benchmark graph: the copy the program runs on, and a
// separately generated copy (same seed, same edges) that the serial
// references read, so no reference shares memory with the measured path.
type input struct {
	spec graphSpec
	g    *graph.Graph
	in   *gen.Input
	ref  *gen.Input
}

// newInput wraps g as a core input named name.
func newInput(name string, road bool, g *graph.Graph) *gen.Input {
	in := gen.NewExternal(name, g.Weighted(), func(gen.Scale) *graph.Graph { return g })
	in.RoadNetwork = road
	return in
}

// generateInputs builds every input of a workload from the run seed. It is
// never timed.
func generateInputs(specs []graphSpec, seed uint64) []*input {
	out := make([]*input, len(specs))
	for i, s := range specs {
		gseed := newRNG(seed, uint64(i+1)).next()
		g := s.generate(gseed)
		out[i] = &input{
			spec: s,
			g:    g,
			in:   newInput(s.name, s.road, g),
			ref:  newInput(s.name+"-ref", s.road, s.generate(gseed)),
		}
	}
	return out
}

// prepareOnce times core.Prepare of every input from a cold prepared cache
// (the generated graph stays seeded in the build memo, so generation is
// excluded). Before each input, outside the clock, the heap is collected
// and its free pages are returned to the OS, so every repetition starts
// from the same state as a fresh process: without this, whether the
// runtime's background scavenger had released the previous repetition's
// pages yet made set-up time bimodal.
func prepareOnce(ins []*input) time.Duration {
	var total time.Duration
	for _, x := range ins {
		core.DropPrepared(x.in.Name, scale)
		gen.SetCached(x.in.Name, scale, x.g)
		debug.FreeOSMemory()
		t := time.Now()
		core.Prepare(x.in, scale)
		total += time.Since(t)
	}
	return total
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 15

// timeSetup repeats prepareOnce and returns the median in seconds. The
// last repetition's prepared forms stay cached for the timed phase.
func timeSetup(ins []*input) float64 {
	xs := make([]float64, setupReps)
	for i := range xs {
		xs[i] = prepareOnce(ins).Seconds()
	}
	return median(xs)
}
