package grb

import (
	"fmt"
	"testing"

	"graphstudy/internal/gen"
)

// BenchmarkSpMV is the threads-scaling smoke for the parallel backend: push
// and pull SpMV across worker counts on the skewed RMAT matrix. CI runs it
// with -benchtime=1x as a does-it-run check; locally, -benchtime=10x and
// comparing workers=1 vs workers=4 shows the blocked kernels' speedup.
func BenchmarkSpMV(b *testing.B) {
	g := gen.RMAT(13, 16, 0.57, 0.19, 0.19, true, 255, 3)
	A := MatrixFromGraph(g, func(w uint32) float64 { return float64(w) + 0.5 })
	A.EnsureCSC()
	n := A.NRows()
	u := NewVector[float64](n, Dense)
	for i := 0; i < n; i += 2 {
		u.SetElement(i, float64(i%97)+0.5)
	}
	s := PlusTimes[float64]()
	for _, workers := range []int{1, 2, 4} {
		for _, hint := range []KernelHint{HintPush, HintPull} {
			name := fmt.Sprintf("workers=%d/push", workers)
			if hint == HintPull {
				name = fmt.Sprintf("workers=%d/pull", workers)
			}
			b.Run(name, func(b *testing.B) {
				ctx := NewGaloisBLASContext(workers)
				for i := 0; i < b.N; i++ {
					w := NewVector[float64](n, Sorted)
					if err := MxV(ctx, w, nil, nil, s, A, u, Desc{Replace: true, Force: hint}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkChunkCrossover is where the chunk of exFor comes from: the same
// kernel call run inline and split over two workers, at work sizes around
// the chunk. dense is a Dense Apply over n positions (work n); push is a
// push VxM over a frontier of f entries of the 52x52x4 road grid the
// study benchmark runs (work f*(1+mean degree)). CI runs it with
// -benchtime=1x as a does-it-run check.
func BenchmarkChunkCrossover(b *testing.B) {
	ctxs := []struct {
		name string
		ctx  func() *Context
	}{
		{"inline", NewSerialContext},
		{"static-2", func() *Context { return split(NewSuiteSparseContext(2)) }},
		{"steal-2", func() *Context { return split(NewGaloisBLASContext(2)) }},
	}
	for _, n := range []int{2048, 4096, 8192, 16384, 32768, 65536} {
		u := NewVector[float64](n, Dense)
		u.DenseFill(1.5)
		for _, c := range ctxs {
			b.Run(fmt.Sprintf("dense/work=%d/%s", n, c.name), func(b *testing.B) {
				ctx := c.ctx()
				w := NewVector[float64](n, Dense)
				for i := 0; i < b.N; i++ {
					if err := Apply(ctx, w, nil, nil, func(x float64) float64 { return 2 * x }, u, Desc{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	A := MatrixFromGraph(gen.Grid(52, 52, 4, true, 1000, 1), func(w uint32) float64 { return float64(w) })
	n := A.NRows()
	for _, f := range []int{256, 1024, 2048, 4096, 8192} {
		u := NewVector[float64](n, Sorted)
		for i := 0; i < f; i++ {
			u.SetElement(i*(n/f), 1)
		}
		for _, c := range ctxs {
			b.Run(fmt.Sprintf("push/work=%d/%s", pushWork(f, A), c.name), func(b *testing.B) {
				ctx := c.ctx()
				for i := 0; i < b.N; i++ {
					w := NewVector[float64](n, Sorted)
					if err := VxM(ctx, w, nil, nil, PlusTimes[float64](), u, A, Desc{Force: HintPush}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
