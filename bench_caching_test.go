// Caching (P1) kernel benchmarks: the flow-vs-simplex ablation from
// DESIGN.md §4 and the dual-sweep workspace path with per-(t, n) dirty-row
// scheduling (DESIGN.md §12).
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

// BenchmarkP1_DualSweep compares one full P1 sweep (all SBS placements
// under fresh dual rewards) on the workspace's nil-dirty path ("fresh":
// full SetCost sweep + Reset + Solve per SBS) against the delta-aware path
// ("incremental": only dirty (t, n) reward rows are retargeted, clean SBSs
// are skipped outright, and a dirty SBS still runs Reset + Solve). Each
// incremental iteration perturbs two reward rows — the steady state of a
// nearly-converged dual loop. Both rows must run allocation-free.
func BenchmarkP1_DualSweep(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.N = 6 // multi-cell: dirty rows touch ≤2 SBSs, the rest skip
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
	dirty := make([][]bool, in.T)
	for t := range dirty {
		dirty[t] = make([]bool, in.N)
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
	b.Run("incremental", func(b *testing.B) {
		ws := caching.NewWorkspace()
		ws.Bind(in)
		if _, _, err := ws.SolveAll(context.Background(), rewards); err != nil {
			b.Fatal(err)
		}
		step := func() {
			for t := range dirty {
				for n := range dirty[t] {
					dirty[t][n] = false
				}
			}
			for j := 0; j < 2; j++ {
				t, n := rng.IntN(in.T), rng.IntN(in.N)
				row := rewards[t][n]
				row[rng.IntN(in.K)] = rng.Float64() * 100
				dirty[t][n] = true
			}
			if _, _, err := ws.SolveAllRows(context.Background(), rewards, dirty); err != nil {
				b.Fatal(err)
			}
		}
		// Flush amortized growth (telemetry buckets) so the
		// timed loop measures the allocation-free steady state.
		for i := 0; i < 8; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}
