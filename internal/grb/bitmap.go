package grb

import (
	"math/bits"
	"sync/atomic"
)

// bitmap is a fixed-size bit set used for dense-vector presence tracking and
// masks.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// setAtomic sets bit i with an atomic read-modify-write of its word, so
// parallel blocks may set bits that share a word.
func (b bitmap) setAtomic(i int) {
	p, bit := &b[i>>6], uint64(1)<<(uint(i)&63)
	for {
		old := atomic.LoadUint64(p)
		if old&bit != 0 || atomic.CompareAndSwapUint64(p, old, old|bit) {
			return
		}
	}
}

func (b bitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitmap) reset() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitmap) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every set bit in ascending order.
func (b bitmap) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

func (b bitmap) clone() bitmap {
	out := make(bitmap, len(b))
	copy(out, b)
	return out
}
