package grb

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//  1. executor policy (static vs work stealing) on skewed SpMV,
//  2. MxM kernel (Gustavson vs hash vs masked dot),
//  3. vector representation per operation,
//  4. push vs pull SpMV as frontier density changes.
//
// Run with: go test ./internal/grb -bench Ablation -benchmem

import (
	"fmt"
	"testing"

	"graphstudy/internal/gen"
)

func ablationMatrix(b *testing.B) *Matrix[uint32] {
	b.Helper()
	g := gen.RMAT(12, 16, 0.57, 0.19, 0.19, true, 255, 7)
	m := WeightMatrixFromGraph(g)
	m.EnsureCSC()
	return m
}

// BenchmarkAblationExecutor compares the two scheduling policies on the
// skewed-row SpMV that dominates the study's workloads.
func BenchmarkAblationExecutor(b *testing.B) {
	A := ablationMatrix(b)
	u := NewVector[uint32](A.NRows(), Dense)
	for i := 0; i < A.NRows(); i++ {
		u.SetElement(i, uint32(i))
	}
	for _, ctx := range []*Context{NewSuiteSparseContext(4), NewGaloisBLASContext(4)} {
		b.Run(ctx.Ex.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := NewVector[uint32](A.NCols(), Sorted)
				if err := VxM(ctx, w, nil, nil, MinPlus[uint32](), u, A, Desc{Replace: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMxMKernel compares the SpGEMM kernels on the triangle
// workload's masked product.
func BenchmarkAblationMxMKernel(b *testing.B) {
	g := gen.RMAT(11, 12, 0.57, 0.19, 0.19, false, 0, 9).Symmetrize()
	g.SortAdjacency()
	A := MatrixFromGraph(g, func(uint32) int64 { return 1 })
	L := A.Tril()
	UT := A.Triu().Transpose()
	UT.EnsureCSC()
	for _, kernel := range []MxMKernel{KernelDot, KernelGustavson, KernelHash} {
		b.Run(kernel.String(), func(b *testing.B) {
			ctx := NewGaloisBLASContext(4)
			ctx.Kernel = kernel
			for i := 0; i < b.N; i++ {
				if _, err := MxM(ctx, L.Pattern(), PlusPair[int64](), L, UT); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVectorRep measures SetElement/merge cost per sparse
// representation — the choice GaloisBLAS makes per application and input.
func BenchmarkAblationVectorRep(b *testing.B) {
	const n = 1 << 14
	for _, rep := range []Rep{Dense, Sorted, List} {
		b.Run(fmt.Sprintf("set/%v", rep), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := NewVector[uint32](n, rep)
				for k := 0; k < 512; k++ {
					v.SetElement((k*2654435761)%n, uint32(k))
				}
			}
		})
	}
}

// BenchmarkAblationPushPull sweeps frontier density: the push kernel wins
// sparse frontiers, the pull kernel wins dense ones (the auto heuristic's
// justification).
func BenchmarkAblationPushPull(b *testing.B) {
	A := ablationMatrix(b)
	n := A.NRows()
	ctx := NewGaloisBLASContext(4)
	for _, fill := range []int{n / 256, n / 16, n} {
		u := NewVector[uint32](n, Dense)
		for i := 0; i < fill; i++ {
			u.SetElement(i*(n/fill), uint32(i))
		}
		for _, mode := range []string{"push", "pull"} {
			b.Run(fmt.Sprintf("nvals=%d/%s", u.NVals(), mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var e entryList[uint32]
					if mode == "push" {
						e = spmvPush(ctx, nil, MinPlus[uint32](), u, A, true)
					} else {
						e = spmvPull(ctx, nil, MinPlus[uint32](), u, A, true)
					}
					if fill > 0 && len(e.idx) == 0 {
						b.Fatal("empty product")
					}
				}
			})
		}
	}
}

// BenchmarkAblationFusedBFS quantifies the study's future-work hypothesis:
// a fused composite kernel recovers most of the bfs gap between the
// three-call matrix formulation and the graph API's native loop. The fused
// arm runs FusedAssignExpand, the kernel the fusion planner lowers each
// bfs round's assign+expand window onto. Compare against
// BenchmarkTable2/bfs at the root for the ls time.
func BenchmarkAblationFusedBFS(b *testing.B) {
	g := gen.Grid(40, 40, 3, false, 0, 5)
	g.SortAdjacency()
	A := BoolMatrixFromGraph(g)
	ctx := NewGaloisBLASContext(4)
	b.Run("three-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist := NewVector[int32](A.NRows(), Dense)
			if err := AssignConstant(ctx, dist, nil, nil, 0, Desc{}); err != nil {
				b.Fatal(err)
			}
			frontier := NewVector[bool](A.NRows(), List)
			frontier.SetElement(0, true)
			level := int32(1)
			for {
				if err := AssignConstant(ctx, dist, StructMask(frontier), nil, level, Desc{}); err != nil {
					b.Fatal(err)
				}
				if frontier.NVals() == 0 {
					break
				}
				if err := VxM(ctx, frontier, ValueMask(dist).Comp(), nil, LorLand(), frontier, A, Desc{Replace: true}); err != nil {
					b.Fatal(err)
				}
				level++
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist := NewVector[int32](A.NRows(), Dense)
			if err := AssignConstant(ctx, dist, nil, nil, 0, Desc{}); err != nil {
				b.Fatal(err)
			}
			frontier := NewVector[bool](A.NRows(), List)
			frontier.SetElement(0, true)
			for level := int32(1); frontier.NVals() > 0; level++ {
				if _, applied, err := FusedAssignExpand(ctx, dist, level, frontier, A); err != nil || !applied {
					b.Fatalf("FusedAssignExpand: applied=%v err=%v", applied, err)
				}
			}
		}
	})
}
