// Load-balancing (P2) kernel benchmarks: the box-knapsack projection
// substrate, greedy recovery, and the dual-sweep workspace path
// (DESIGN.md §12).
package edgecache_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"edgecache"
	"edgecache/internal/convex"
	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
	"edgecache/internal/projection"
	"edgecache/internal/workload"
)

func BenchmarkProjection_BoxKnapsack(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := 900
	z := make([]float64, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	c := make([]float64, n)
	for i := range z {
		z[i] = rng.Float64() * 2
		hi[i] = 1
		c[i] = rng.Float64() * 0.2
	}
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projection.BoxKnapsack(dst, z, lo, hi, c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBalance_GreedyRecovery(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.T = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := model.NewCachePlan(in.N, in.K)
	for k := 0; k < in.CacheCap[0]; k++ {
		x[0][k] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadbalance.OptimalGivenPlacement(in, 0, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkP2_DualSweep compares one full dual iteration of P2 (all T×N
// slot solves) on a pre-bound workspace ("reused": the same μ every op,
// on a bandwidth that binds, so most slots fall back to the kernel and
// restart at their own fixed point; zero allocations), with μ alternating
// between two tensors every op ("moving": the streaming service's dual
// loop at ŵ ≡ 0, where most slots take the closed form; zero
// allocations), and the same with an SBS cost ("kernel": ŵ > 0, so every
// slot runs a full FISTA solve from the other tensor's optimum; zero
// allocations).
func BenchmarkP2_DualSweep(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.T = 10
	cfg.K = 12
	cfg.ClassesPerSBS = 8
	cfg.Bandwidth = 8
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	randomMu := func(in *model.Instance, rng *rand.Rand) [][][]float64 {
		mu := make([][][]float64, in.T)
		for t := range mu {
			mu[t] = make([][]float64, in.N)
			for n := range mu[t] {
				mu[t][n] = make([]float64, in.Classes[n]*in.K)
				for i := range mu[t][n] {
					mu[t][n][i] = rng.Float64()
				}
			}
		}
		return mu
	}
	rng := rand.New(rand.NewPCG(51, 52))
	mu := randomMu(in, rng)
	opts := convex.Options{MaxIter: 600, StepTol: 1e-6}

	b.Run("reused", func(b *testing.B) {
		ws := loadbalance.NewWorkspace()
		ws.Bind(in)
		if _, err := ws.SolveDual(context.Background(), mu, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ws.SolveDual(context.Background(), mu, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The streaming service's window shape (serve-chc: 2 SBSs × 8 classes
	// × 30 contents, B = 20, a CHC window of 6 slots), where the bandwidth
	// rarely binds: at ŵ ≡ 0 the closed form is the cost, at ŵ > 0 the
	// step kernel, not the knapsack bisection.
	moving := func(sbsRatio float64) func(b *testing.B) {
		return func(b *testing.B) {
			in, _, err := edgecache.NewScenario(2, 30, 8, 6).WithCache(4).WithBandwidth(20).
				WithBeta(50).WithJitter(0.4).WithSBSWeightRatio(sbsRatio).WithSeed(1).Build()
			if err != nil {
				b.Fatal(err)
			}
			mus := [2][][][]float64{}
			for j := range mus {
				mus[j] = randomMu(in, rand.New(rand.NewPCG(53, uint64(j))))
			}
			ws := loadbalance.NewWorkspace()
			ws.Bind(in)
			for _, m := range mus {
				if _, err := ws.SolveDual(context.Background(), m, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.SolveDual(context.Background(), mus[i%2], opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("moving", moving(0))
	b.Run("kernel", moving(0.3))
}
