// Caching (P1) kernel benchmarks: the flow-vs-simplex ablation from
// DESIGN.md §4 and the dual-sweep workspace path (DESIGN.md §12).
package edgecache_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"edgecache/internal/caching"
	"edgecache/internal/workload"
)

// benchSubproblem builds a P1 instance representative of one paper-scale
// window solve (K = 30, horizon = 10, C = 5).
func benchSubproblem() *caching.Subproblem {
	rng := rand.New(rand.NewPCG(1, 2))
	sp := &caching.Subproblem{K: 30, Capacity: 5, Beta: 100, Reward: make([][]float64, 10)}
	for t := range sp.Reward {
		sp.Reward[t] = make([]float64, sp.K)
		for k := range sp.Reward[t] {
			sp.Reward[t][k] = rng.Float64() * 200
		}
	}
	return sp
}

func BenchmarkP1_FlowVsSimplex(b *testing.B) {
	sp := benchSubproblem()
	b.Run("flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sp.SolveFlow(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sp.SolveLP(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP1_DualSweep times one full P1 sweep of a bound workspace, the
// P1 step of every dual iteration: a SetCost pass over every reward row,
// then Reset + Solve for every SBS. It must run allocation-free.
func BenchmarkP1_DualSweep(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.N = 6
	cfg.T = 10
	cfg.K = 12
	cfg.ClassesPerSBS = 8
	cfg.CacheCap = 3
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 22))
	rewards := make([][][]float64, in.T)
	for t := range rewards {
		rewards[t] = make([][]float64, in.N)
		for n := range rewards[t] {
			rewards[t][n] = make([]float64, in.K)
			for k := range rewards[t][n] {
				rewards[t][n][k] = rng.Float64() * 100
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		ws := caching.NewWorkspace()
		ws.Bind(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ws.SolveAll(context.Background(), rewards); err != nil {
				b.Fatal(err)
			}
		}
	})
}
