// Min-cost-flow kernel benchmarks: the successive-shortest-paths solver
// that backs every P1 placement, from scratch and on a reused graph
// between dual iterations (DESIGN.md §12).
package edgecache_test

import (
	"math/rand/v2"
	"testing"

	"edgecache/internal/mcflow"
)

func BenchmarkMCFlow_SuccessiveShortestPaths(b *testing.B) {
	// A layered DAG the size of a paper-scale P1 window network
	// (~600 nodes), with mixed-sign costs.
	rng := rand.New(rand.NewPCG(7, 8))
	const layers, width = 30, 20
	build := func() *mcflow.Graph {
		g := mcflow.NewGraph(layers*width + 2)
		src, snk := layers*width, layers*width+1
		for i := 0; i < width; i++ {
			g.AddArc(src, i, 1, 0)
			g.AddArc((layers-1)*width+i, snk, 1, 0)
		}
		for l := 0; l+1 < layers; l++ {
			for i := 0; i < width; i++ {
				for _, j := range []int{i, (i + 1) % width} {
					g.AddArc(l*width+i, (l+1)*width+j, 1, rng.Float64()*4-1)
				}
			}
		}
		return g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := build()
		if _, err := g.Solve(layers*width, layers*width+1, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCFlow_Resolve measures the re-solve that dual iterations lean
// on: after a solve, a handful of arc costs move and the reused graph is
// solved again. "fresh" pays SetCost + Reset + Solve, the one re-solve
// path (its results match a freshly built graph bit for bit,
// TestResetSetCostMatchesFresh), and must run allocation-free.
func BenchmarkMCFlow_Resolve(b *testing.B) {
	const layers, width = 30, 20
	const src, snk = layers * width, layers*width + 1
	type net struct {
		g     *mcflow.Graph
		arcs  []mcflow.Arc
		costs []float64
	}
	build := func(rng *rand.Rand) *net {
		n := &net{g: mcflow.NewGraph(layers*width + 2)}
		for i := 0; i < width; i++ {
			n.g.AddArc(src, i, 1, 0)
			n.g.AddArc((layers-1)*width+i, snk, 1, 0)
		}
		for l := 0; l+1 < layers; l++ {
			for i := 0; i < width; i++ {
				for _, j := range []int{i, (i + 1) % width} {
					c := rng.Float64()*4 - 1
					n.arcs = append(n.arcs, n.g.AddArc(l*width+i, (l+1)*width+j, 1, c))
					n.costs = append(n.costs, c)
				}
			}
		}
		return n
	}
	perturb := func(rng *rand.Rand, n *net) {
		for j := 0; j < 3; j++ {
			i := rng.IntN(len(n.arcs))
			n.costs[i] += rng.Float64()*0.2 - 0.1
			n.g.SetCost(n.arcs[i], n.costs[i])
		}
	}

	b.Run("fresh", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(11, 12))
		n := build(rng)
		g := n.g
		if _, err := g.Solve(src, snk, 5); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			perturb(rng, n)
			g.Reset()
			if _, err := g.Solve(src, snk, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
