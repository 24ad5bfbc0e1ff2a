package grb

import "math/bits"

// Mask filters which output positions an operation may write, the analog of
// the GraphBLAS mask parameter. Complement inverts the filter; Structural
// masks consider any explicit entry as true, while value masks consider
// entries with a non-"zero" value (see ValueMask).
//
// A Mask is a view over its source vector, not a copy: a kernel reads the
// source's contents when it runs, not when the mask was built, exactly as
// GraphBLAS reads a mask argument at call time. A Dense or Bitmap source's
// presence words are read in place, a Dense source's values are probed in
// place, and only Sorted and List sources are spread into a bitmap — the
// per-run scratch bitmap of the Context, filled at the start of the kernel
// call and cleared at its end. Mutating the source between building a mask
// and passing it to a kernel therefore changes what the kernel sees. An
// output that aliases the mask source is safe: every kernel reads a mask
// position before it writes the same output position.
//
// The Replace semantics of GrB_DESC_R are a property of the operation call
// (see Desc), not of the mask itself.
type Mask struct {
	n   int
	src maskSource
	// Complement makes the mask allow positions *not* in the source's
	// pattern.
	Complement bool
}

// maskSource is the type-erased vector a Mask reads.
type maskSource interface {
	// view resolves the source for one kernel call into ws's mask view.
	view(ws *workspace, comp bool) *maskView
	// count returns how many positions the source lets through.
	count() int
}

// Count returns how many positions the mask allows.
func (m *Mask) Count() int {
	if m == nil {
		return -1
	}
	c := m.src.count()
	if m.Complement {
		return m.n - c
	}
	return c
}

// Comp returns a complemented copy of the mask (GrB_DESC_C / GrB_DESC_SC).
func (m *Mask) Comp() *Mask {
	return &Mask{n: m.n, src: m.src, Complement: !m.Complement}
}

// StructMask builds a structural mask from the explicit entries of v
// (GrB_DESC_S: entry present means position allowed).
func StructMask[T any](v *Vector[T]) *Mask {
	return &Mask{n: v.Size(), src: structSource[T]{v}}
}

// ValueMask builds a value mask from v: positions whose explicit value is
// non-zero (in Go terms, != the zero value of T) are allowed. This matches
// how LAGraph bfs masks with its dist vector, whose explicit zeros mean
// "unvisited".
func ValueMask[T comparable](v *Vector[T]) *Mask {
	return &Mask{n: v.Size(), src: valueSource[T]{v}}
}

// maskView is a Mask resolved for one kernel call: either presence words
// to test (bits) or a value probe over a Dense source, with the complement
// folded into every probe. A nil *maskView allows every position.
type maskView struct {
	bits bitmap
	// words, for a view spread from a Sorted or List source, lists in
	// ascending order the words of bits that hold a set bit; nil otherwise.
	words []int32
	probe valueProbe
	comp  bool
}

// valueProbe tests the non-zero explicit values of a Dense source in place.
type valueProbe interface {
	has(i int) bool
	word(wi int) uint64
}

type structSource[T any] struct{ v *Vector[T] }

func (s structSource[T]) count() int { return s.v.NVals() }

func (s structSource[T]) view(ws *workspace, comp bool) *maskView {
	v := s.v
	if v.rep == Dense || v.rep == Bitmap {
		return ws.setView(maskView{bits: v.present, comp: comp})
	}
	return ws.spread(v.n, v.idx, func(int) bool { return true }, comp)
}

type valueSource[T comparable] struct{ v *Vector[T] }

func (s valueSource[T]) count() int {
	var zero T
	c := 0
	s.v.ForEach(func(_ int, x T) {
		if x != zero {
			c++
		}
	})
	return c
}

func (s valueSource[T]) view(ws *workspace, comp bool) *maskView {
	v := s.v
	if v.rep == Dense {
		return ws.setView(maskView{probe: s, comp: comp})
	}
	var zero T
	return ws.spread(v.n, v.idx, func(k int) bool { return v.vals[k] != zero }, comp)
}

// has reports whether position i holds an explicit non-zero value.
func (s valueSource[T]) has(i int) bool {
	var zero T
	return s.v.present.get(i) && s.v.dense[i] != zero
}

// word returns word wi of has, probing only the present positions.
func (s valueSource[T]) word(wi int) uint64 {
	var zero T
	p := s.v.present[wi]
	base := wi << 6
	for c := p; c != 0; c &= c - 1 {
		b := bits.TrailingZeros64(c)
		if s.v.dense[base+b] == zero {
			p &^= 1 << uint(b)
		}
	}
	return p
}

// allows reports whether writes to position i pass the mask. A nil view
// allows everything.
func (m *maskView) allows(i int) bool {
	if m == nil {
		return true
	}
	if m.probe != nil {
		return m.probe.has(i) != m.comp
	}
	return m.bits.get(i) != m.comp
}

// word returns the positions of bitmap word wi that the mask lets an
// n-position output write.
func (m *maskView) word(wi, n int) uint64 {
	a := ^uint64(0)
	if m != nil {
		if m.probe != nil {
			a = m.probe.word(wi)
		} else {
			a = m.bits[wi]
		}
		if m.comp {
			a = ^a
		}
	}
	if rem := n - wi<<6; rem < 64 {
		a &= 1<<uint(rem) - 1
	}
	return a
}

// forEachIn calls fn, in ascending order, for every position in [lo, hi)
// of an n-position output that the mask allows.
func (m *maskView) forEachIn(lo, hi, n int, fn func(i int)) {
	if lo >= hi {
		return
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		base := wi << 6
		for c := m.word(wi, n); c != 0; c &= c - 1 {
			i := base + bits.TrailingZeros64(c)
			if i >= hi {
				return
			}
			if i >= lo {
				fn(i)
			}
		}
	}
}

// Desc collects the descriptor flags of an operation call (GrB_Descriptor).
type Desc struct {
	// Replace clears the output's previous entries outside the mask
	// (GrB_DESC_R). Without it, unwritten positions keep their old values.
	Replace bool
	// Force overrides the push/pull heuristic of VxM/MxV, the analog of
	// SuiteSparse's GxB_AxB_METHOD hint. The pure-pull BFS variant uses it
	// to expose the materialization cost the heuristic normally avoids.
	Force KernelHint
}

// KernelHint selects an SpMV kernel explicitly.
type KernelHint uint8

const (
	// HintAuto lets the density/mask heuristics choose.
	HintAuto KernelHint = iota
	// HintPush forces the SAXPY kernel (expand source entries).
	HintPush
	// HintPull forces the SDOT kernel (dot every output position),
	// densifying the source vector if needed.
	HintPull
)
