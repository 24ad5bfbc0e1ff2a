package grb

import (
	"math/bits"
	"sync/atomic"

	"graphstudy/internal/galois"
	"graphstudy/internal/perfmodel"
	"graphstudy/internal/trace"
)

// This file is the in-place path of every kernel whose output w is Dense:
// Apply, EWiseAdd, EWiseMult, SelectVector, masked AssignConstant and the
// pull SpMV. Instead of staging the result as per-block entry lists that
// are stitched and then merged into w, each block computes every written
// position from operands read in place and stores the value and the
// presence word straight into w.
//
// Blocks are cut on 64-bit words of w's presence bitmap, so no two blocks
// share a presence word and the writes are race-free at any worker count.
// Each position is folded from the same operands in the same order as the
// entry-list path, so the result is bit-identical to that path followed by
// a merge, and independent of the blocking. Position i reads only
// position i of each operand, so an operand aliasing w needs no snapshot:
// a block reads an operand's word before it stores w's.

// Kinds of operand a denseRead reads.
const (
	readAll    uint8 = iota // no operand: every position present, zero values
	readDense               // a Dense vector, read in place
	readSorted              // entries in ascending index order
)

// denseRead reads one operand of the in-place path word by word, in
// ascending word order within a block. A Dense operand is read in place; a
// Sorted one through its own entry slices; List and Bitmap operands through
// a sorted copy of their entries (the copy Entries made before).
type denseRead[T any] struct {
	kind    uint8
	dense   []T
	present bitmap
	idx     []int32
	vals    []T
	// k is the cursor into idx; base is the first entry of the last word
	// read.
	k, base int
}

func newDenseRead[T any](u *Vector[T]) denseRead[T] {
	switch {
	case u == nil:
		return denseRead[T]{kind: readAll}
	case u.rep == Dense:
		return denseRead[T]{kind: readDense, dense: u.dense, present: u.present}
	case u.rep == Sorted:
		return denseRead[T]{kind: readSorted, idx: u.idx, vals: u.vals}
	}
	idx := append([]int32(nil), u.idx...)
	vals := append([]T(nil), u.vals...)
	sortEntries(idx, vals)
	return denseRead[T]{kind: readSorted, idx: idx, vals: vals}
}

// seek positions the cursor at the first entry of word wlo.
func (r *denseRead[T]) seek(wlo int) {
	if r.kind != readSorted {
		return
	}
	lo, hi, first := 0, len(r.idx), int32(wlo<<6)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.idx[mid] < first {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.k = lo
}

// word returns the presence word wi. Sorted operands must be read in
// ascending word order from the word seek named.
func (r *denseRead[T]) word(wi int) uint64 {
	switch r.kind {
	case readDense:
		return r.present[wi]
	case readSorted:
		r.base = r.k
		var p uint64
		end := int32((wi + 1) << 6)
		for r.k < len(r.idx) && r.idx[r.k] < end {
			p |= 1 << (uint(r.idx[r.k]) & 63)
			r.k++
		}
		return p
	}
	return ^uint64(0)
}

// at returns the value at position i, whose bit is set in p, the presence
// word word returned for i's word.
func (r *denseRead[T]) at(i int, p uint64) T {
	switch r.kind {
	case readDense:
		return r.dense[i]
	case readSorted:
		return r.vals[r.base+bits.OnesCount64(p&(1<<(uint(i)&63)-1))]
	}
	var zero T
	return zero
}

// word returns the positions of bitmap word wi that the mask lets an
// n-position output write.
func (m *Mask) word(wi, n int) uint64 {
	a := ^uint64(0)
	if m != nil {
		a = m.pattern[wi]
		if m.Complement {
			a = ^a
		}
	}
	if rem := n - wi<<6; rem < 64 {
		a &= 1<<uint(rem) - 1
	}
	return a
}

// denseVal computes a kernel's value at position i from the operands'
// values x and y, which are present when hx and hy are (an absent operand
// is present everywhere with zero values). It reports false when the
// kernel writes nothing at i.
type denseVal[T any] func(i int, x, y T, hx, hy bool, gctx *galois.Ctx) (T, bool)

// writeDense runs the in-place path: w<mask> = val(u, v) under the
// mask/accum/replace semantics mergeIntoVector gives an entry list. The
// candidate positions are those the mask allows where u and v are both
// present (union: either is). u or v may be nil. It returns how many
// positions were computed, the length of the entry list the staged path
// would have built.
func writeDense[T any](ctx *Context, w *Vector[T], mask *Mask, accum BinaryOp[T], replace bool, u, v *Vector[T], union bool, val denseVal[T]) int {
	ru, rv := newDenseRead(u), newDenseRead(v)
	n := w.n
	var computed atomic.Int64
	galois.ForBlocks(ctx.Ex, len(w.present), (ctx.blockFor(n)+63)>>6, func(_, wlo, whi int, gctx *galois.Ctx) {
		bu, bv := ru, rv
		bu.seek(wlo)
		bv.seek(wlo)
		var zero T
		k := 0
		for wi := wlo; wi < whi; wi++ {
			pu, pv := bu.word(wi), bv.word(wi)
			cand := pu & pv
			if union {
				cand = pu | pv
			}
			cand &= mask.word(wi, n)
			old := w.present[wi]
			p := old
			if replace {
				p = 0
			}
			base := wi << 6
			for c := cand; c != 0; c &= c - 1 {
				b := bits.TrailingZeros64(c)
				i, bit := base+b, uint64(1)<<uint(b)
				var x, y T
				hx, hy := pu&bit != 0, pv&bit != 0
				if hx {
					x = bu.at(i, pu)
				}
				if hy {
					y = bv.at(i, pv)
				}
				z, ok := val(i, x, y, hx, hy, gctx)
				if !ok {
					continue
				}
				k++
				if accum != nil && p&bit != 0 {
					z = accum(w.dense[i], z)
				}
				w.dense[i] = z
				p |= bit
			}
			// Replace: positions not rewritten leave w, zeroed like Clear.
			for c := old &^ p; c != 0; c &= c - 1 {
				w.dense[base+bits.TrailingZeros64(c)] = zero
			}
			w.present[wi] = p
		}
		computed.Add(int64(k))
	})
	w.ndense = w.present.count()
	return int(computed.Load())
}

// commit finishes a kernel that computed k entries: it tags sp with them,
// charged at the size of the entry list the API materializes, and commits
// them to w. The in-place path has already written them, so only their
// stores are recorded against the performance model, exactly as
// mergeIntoVector records them; otherwise e is merged into w.
func commit[T any](sp *trace.Span, w *Vector[T], inPlace bool, k int, e entryList[T], accum BinaryOp[T], replace bool) {
	sp.NNZOut = int64(k)
	sp.Bytes = entryBytes[T](k)
	if !inPlace {
		mergeIntoVector(w, e, accum, replace)
		return
	}
	if c := perfmodel.Get(); c != nil {
		c.StoreRange(w.slot, perfmodel.KVecVals, 0, k, 8)
		c.Instr(k)
	}
}
