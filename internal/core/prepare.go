package core

import (
	"sync"
	"sync/atomic"

	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
	"graphstudy/internal/grb"
	"graphstudy/internal/lonestar"
)

// Prepared holds one input graph and the derived forms the systems read.
// Preparation cost is excluded from reported runtimes, matching the study
// ("runtimes do not include graph loading and preprocessing"), but only
// the base graph and the study source are built up front. Every derived
// form is built on first use, once, behind its own sync.Once, so a run
// pays only for the forms it reads and concurrent runs share them; RunCtx
// builds the forms formsFor lists before it starts the clock. All fields
// and built forms are read-only.
type Prepared struct {
	In  *gen.Input
	Sc  gen.Scale
	G   *graph.Graph // base directed weighted graph, sorted adjacency, CSC built
	Src uint32       // study source: max out-degree vertex (0 for roads)

	// built records which forms exist, so tests can check formsFor.
	built [numForms]atomic.Bool

	sym, symSorted   lazy[*graph.Graph]
	aBool            lazy[*grb.Matrix[bool]]
	aFloat           lazy[*grb.Matrix[float64]]
	aW32, aSymU32    lazy[*grb.Matrix[uint32]]
	aW64             lazy[*grb.Matrix[uint64]]
	aSymInt, aSrtInt lazy[*grb.Matrix[int64]]
}

// form names one derived form of a Prepared input.
type form int

const (
	fSym form = iota
	fSymSorted
	fABool
	fAFloat
	fAW32
	fAW64
	fASymU32
	fASymInt
	fASrtInt
	numForms
)

// lazy is one derived form, built by the first get.
type lazy[T any] struct {
	once sync.Once
	v    T
}

// get returns the form, building it on the first call and marking it built
// in p.
func (l *lazy[T]) get(p *Prepared, f form, build func() T) T {
	l.once.Do(func() {
		l.v = build()
		p.built[f].Store(true)
	})
	return l.v
}

// Sym is the undirected closure of G, sorted, unweighted, with in-edges
// (cc, tc and ktruss on LS, and the symmetric matrix forms). Its in-edges
// share the out-edge arrays: the CSC of a sorted symmetric graph is its CSR.
func (p *Prepared) Sym() *graph.Graph {
	return p.sym.get(p, fSym, func() *graph.Graph {
		sym := p.G.Symmetrize()
		sym.AliasIn()
		return sym
	})
}

// SymSorted is Sym relabeled by decreasing degree, sorted (tc on LS and the
// degree-sorted matrix).
func (p *Prepared) SymSorted() *graph.Graph {
	return p.symSorted.get(p, fSymSorted, func() *graph.Graph { return lonestar.SortByDegree(p.Sym()) })
}

// ABool is the pattern of G with its CSC mirror (bfs).
func (p *Prepared) ABool() *grb.Matrix[bool] {
	return p.aBool.get(p, fABool, func() *grb.Matrix[bool] {
		m := grb.BoolMatrixFromGraph(p.G)
		m.EnsureCSC() // the pull kernels read it
		return m
	})
}

// AFloat is 1.0 per edge of G with its CSC mirror (pr).
func (p *Prepared) AFloat() *grb.Matrix[float64] {
	return p.aFloat.get(p, fAFloat, func() *grb.Matrix[float64] {
		m := grb.FloatMatrixFromGraph(p.G)
		m.EnsureCSC() // the pull kernels read it
		return m
	})
}

// AW32 holds the weights of G (sssp, and the incremental bfs warm path).
func (p *Prepared) AW32() *grb.Matrix[uint32] {
	return p.aW32.get(p, fAW32, func() *grb.Matrix[uint32] { return grb.WeightMatrixFromGraph(p.G) })
}

// AW64 holds the weights of G as 64-bit values (sssp on eukarya).
func (p *Prepared) AW64() *grb.Matrix[uint64] {
	return p.aW64.get(p, fAW64, func() *grb.Matrix[uint64] {
		return grb.MatrixFromGraph(p.G, func(w uint32) uint64 { return uint64(w) })
	})
}

// ASymU32 is the pattern of Sym as uint32 (cc FastSV).
func (p *Prepared) ASymU32() *grb.Matrix[uint32] {
	return p.aSymU32.get(p, fASymU32, func() *grb.Matrix[uint32] {
		return grb.MatrixFromGraph(p.Sym(), func(uint32) uint32 { return 1 })
	})
}

// ASymInt is the pattern of Sym as 1s (tc on GB, ktruss).
func (p *Prepared) ASymInt() *grb.Matrix[int64] {
	return p.aSymInt.get(p, fASymInt, func() *grb.Matrix[int64] {
		return grb.MatrixFromGraph(p.Sym(), func(uint32) int64 { return 1 })
	})
}

// ASrtInt is the pattern of SymSorted as 1s (tc gb-sort and gb-ll).
func (p *Prepared) ASrtInt() *grb.Matrix[int64] {
	return p.aSrtInt.get(p, fASrtInt, func() *grb.Matrix[int64] {
		return grb.MatrixFromGraph(p.SymSorted(), func(uint32) int64 { return 1 })
	})
}

// build makes sure every listed form exists.
func (p *Prepared) build(forms []form) {
	for _, f := range forms {
		switch f {
		case fSym:
			p.Sym()
		case fSymSorted:
			p.SymSorted()
		case fABool:
			p.ABool()
		case fAFloat:
			p.AFloat()
		case fAW32:
			p.AW32()
		case fAW64:
			p.AW64()
		case fASymU32:
			p.ASymU32()
		case fASymInt:
			p.ASymInt()
		case fASrtInt:
			p.ASrtInt()
		}
	}
}

// formBytes returns the bytes of the derived forms built so far; G is not
// counted (the dataset registry charges it as the graph). Only forms whose
// built flag is set are read, so it may run beside a build.
func (p *Prepared) formBytes() int64 {
	var b int64
	for f := form(0); f < numForms; f++ {
		if !p.built[f].Load() {
			continue
		}
		switch f {
		case fSym:
			b += int64(p.sym.v.SizeBytes())
		case fSymSorted:
			b += int64(p.symSorted.v.SizeBytes())
		case fABool:
			b += p.aBool.v.SizeBytes()
		case fAFloat:
			b += p.aFloat.v.SizeBytes()
		case fAW32:
			b += p.aW32.v.SizeBytes()
		case fAW64:
			b += p.aW64.v.SizeBytes()
		case fASymU32:
			b += p.aSymU32.v.SizeBytes()
		case fASymInt:
			b += p.aSymInt.v.SizeBytes()
		case fASrtInt:
			b += p.aSrtInt.v.SizeBytes()
		}
	}
	return b
}

var (
	prepMu    sync.Mutex
	prepCache = map[prepKey]*prepEntry{}
)

type prepKey struct {
	name string
	sc   gen.Scale
}

type prepEntry struct {
	once sync.Once
	// p is set once built; atomic so PreparedBytes can read it without
	// waiting on once.
	p atomic.Pointer[Prepared]
}

// Prepare returns the cached Prepared of the named input at the given
// scale, building the base graph and source on first use; the derived
// forms follow on demand.
func Prepare(in *gen.Input, sc gen.Scale) *Prepared {
	key := prepKey{in.Name, sc}
	prepMu.Lock()
	e, ok := prepCache[key]
	if !ok {
		e = &prepEntry{}
		prepCache[key] = e
	}
	prepMu.Unlock()
	e.once.Do(func() {
		g := in.Build(sc)
		e.p.Store(&Prepared{In: in, Sc: sc, G: g, Src: in.Source(g)})
	})
	return e.p.Load()
}

// PreparedBytes reports the bytes of the derived forms built so far for the
// named input at the given scale (0 when it is not prepared). The dataset
// registry charges them to the graph's budget entry. Safe to call while
// runs build forms.
func PreparedBytes(name string, sc gen.Scale) int64 {
	prepMu.Lock()
	e := prepCache[prepKey{name, sc}]
	prepMu.Unlock()
	if e == nil {
		return 0
	}
	if p := e.p.Load(); p != nil {
		return p.formBytes()
	}
	return 0
}

// DropPrepared evicts one prepared input so its matrix forms can be
// garbage-collected. It also drops the gen build memo for the same (name,
// scale): the memo holds the base graph the Prepared forms alias, so
// deleting only the prepCache entry would free nothing. The dataset
// registry's budget eviction and memory-bound sweeps both rely on this.
func DropPrepared(name string, sc gen.Scale) {
	prepMu.Lock()
	delete(prepCache, prepKey{name, sc})
	prepMu.Unlock()
	gen.DropCached(name, sc)
}

// PreparedCount reports how many prepared inputs are resident (tests and
// metrics).
func PreparedCount() int {
	prepMu.Lock()
	defer prepMu.Unlock()
	return len(prepCache)
}
