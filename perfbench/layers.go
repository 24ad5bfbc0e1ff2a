package main

import (
	"sort"
	"strings"
	"time"

	"graphstudy/internal/trace"
)

// layer indexes the program modules a traced op's time is split among.
type layer int

const (
	lLagraph layer = iota
	lLonestar
	lAdapt
	lFuse
	lGrb
	lGalois
	nLayers
)

// rank orders span categories by nesting depth: galois regions and loops
// run inside grb kernels, kernels inside fused steps, and all of them
// inside algorithm rounds. An instant covered by several spans belongs to
// the deepest one, so the per-layer self times never double-count.
func rank(ev *trace.Event) layer {
	switch ev.Cat {
	case trace.CatRegion, trace.CatLoop:
		return lGalois
	case trace.CatKernel:
		return lGrb
	case trace.CatFused:
		return lFuse
	case trace.CatAdapt:
		return lAdapt
	case trace.CatRound:
		if strings.HasPrefix(ev.Op, "lonestar.") {
			return lLonestar
		}
	}
	// Rounds and delta steps of the LAGraph-style algorithms.
	return lLagraph
}

// attribution is one traced op's time split by layer.
type attribution struct {
	self    [nLayers]time.Duration
	covered time.Duration // union of all spans
	// lagraphRoundSelf is the part of self[lLagraph] that lies inside
	// round spans (excluding delta steps).
	lagraphRoundSelf time.Duration
}

// attribute sweeps the op's spans in time order and gives every covered
// instant to the deepest span open at that instant.
func attribute(evs []trace.Event) attribution {
	type edge struct {
		at    time.Duration
		open  bool
		layer layer
		round bool // a lagraph round span (not a delta step)
	}
	edges := make([]edge, 0, 2*len(evs))
	for i := range evs {
		ev := &evs[i]
		l := rank(ev)
		r := ev.Cat == trace.CatRound && l == lLagraph
		edges = append(edges, edge{ev.Start, true, l, r}, edge{ev.Start + ev.Dur, false, l, r})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var a attribution
	var open [nLayers]int
	lagraphRounds, lagraphOther := 0, 0
	var prev time.Duration
	for _, e := range edges {
		if d := e.at - prev; d > 0 {
			for l := nLayers - 1; l >= 0; l-- {
				if open[l] > 0 {
					a.self[l] += d
					a.covered += d
					if l == lLagraph && lagraphOther == 0 && lagraphRounds > 0 {
						a.lagraphRoundSelf += d
					}
					break
				}
			}
		}
		prev = e.at
		step := 1
		if !e.open {
			step = -1
		}
		open[e.layer] += step
		if e.layer == lLagraph {
			if e.round {
				lagraphRounds += step
			} else {
				lagraphOther += step
			}
		}
	}
	return a
}
