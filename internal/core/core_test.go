package core

import (
	"context"
	"math"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// tinyInstance builds a small instance solvable by BruteForce.
func tinyInstance(t *testing.T, mutate func(*workload.InstanceConfig)) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 4
	cfg.K = 4
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 3
	cfg.Workload.Jitter = 0.4
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestBruteForceBeatsNullAndIsFeasible(t *testing.T) {
	in := tinyInstance(t, nil)
	traj, br, err := BruteForce(in, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		t.Fatalf("brute force trajectory infeasible: %v", err)
	}
	if br.Total > in.NoCachingCost()+1e-9 {
		t.Fatalf("brute force %g worse than caching nothing %g", br.Total, in.NoCachingCost())
	}
}

func TestBruteForceRejectsLargeK(t *testing.T) {
	in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.K = 20; cfg.Bandwidth = 6 })
	if _, _, err := BruteForce(in, convex.Options{}); err == nil {
		t.Fatal("BruteForce accepted K = 20")
	}
}

func TestSolveMatchesBruteForceOnTinyInstances(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.Seed = seed })
		_, want, err := BruteForce(in, convex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(context.Background(), in, Options{MaxIter: 120})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.CheckTrajectory(got.Trajectory, 1e-6); err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		// Algorithm 1's UB should come very close to the true optimum.
		if got.Cost.Total > want.Total*1.05+1e-9 {
			t.Fatalf("seed %d: primal-dual %g vs optimum %g (> 5%% off)", seed, got.Cost.Total, want.Total)
		}
		if got.Cost.Total < want.Total-1e-6 {
			t.Fatalf("seed %d: primal-dual %g beats 'optimum' %g — oracle bug", seed, got.Cost.Total, want.Total)
		}
		// The dual bound must actually lower-bound the optimum.
		if got.LowerBound > want.Total+1e-6*math.Max(1, math.Abs(want.Total)) {
			t.Fatalf("seed %d: LB %g exceeds optimum %g", seed, got.LowerBound, want.Total)
		}
	}
}

func TestSolvePlacementsAreIntegralAndWithinCapacity(t *testing.T) {
	in := tinyInstance(t, nil)
	res, err := Solve(context.Background(), in, Options{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	for tt, dec := range res.Trajectory {
		if !dec.X.IsIntegral(0) {
			t.Fatalf("slot %d: fractional placement", tt)
		}
		for n := 0; n < in.N; n++ {
			if len(dec.X.Items(n)) > in.CacheCap[n] {
				t.Fatalf("slot %d SBS %d: over capacity", tt, n)
			}
		}
	}
	if res.Iterations <= 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestSolveRespectsInitialCache(t *testing.T) {
	in := tinyInstance(t, nil)
	init := model.NewCachePlan(in.N, in.K)
	init[0][0] = 1
	in.InitialCache = init
	res, err := Solve(context.Background(), in, Options{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Cost accounting must charge h relative to the initial plan.
	br := in.TotalCost(res.Trajectory)
	if math.Abs(br.Total-res.Cost.Total) > 1e-9 {
		t.Fatalf("reported %g, recomputed %g", res.Cost.Total, br.Total)
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	in := tinyInstance(t, nil)
	in.N = 0
	if _, err := Solve(context.Background(), in, Options{}); err == nil {
		t.Fatal("Solve accepted invalid instance")
	}
	if _, _, err := BruteForce(in, convex.Options{}); err == nil {
		t.Fatal("BruteForce accepted invalid instance")
	}
}

func TestMultiSBSSeparability(t *testing.T) {
	// Optimum of a 2-SBS instance equals the sum of the two 1-SBS optima
	// (the problem separates across SBSs).
	in2 := tinyInstance(t, func(cfg *workload.InstanceConfig) {
		cfg.N = 2
		cfg.T = 3
		cfg.K = 3
		cfg.ClassesPerSBS = 2
		cfg.CacheCap = 1
	})
	_, br2, err := BruteForce(in2, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var sum float64
	for n := 0; n < 2; n++ {
		sub := &model.Instance{
			N:         1,
			K:         in2.K,
			T:         in2.T,
			Classes:   []int{in2.Classes[n]},
			CacheCap:  []int{in2.CacheCap[n]},
			Bandwidth: []float64{in2.Bandwidth[n]},
			OmegaBS:   [][]float64{in2.OmegaBS[n]},
			OmegaSBS:  [][]float64{in2.OmegaSBS[n]},
			Beta:      []float64{in2.Beta[n]},
			Demand:    extractSBS(in2, n),
		}
		if err := sub.Validate(); err != nil {
			t.Fatal(err)
		}
		_, br, err := BruteForce(sub, convex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sum += br.Total
	}
	if math.Abs(br2.Total-sum) > 1e-6*(1+math.Abs(sum)) {
		t.Fatalf("joint %g != sum of per-SBS %g", br2.Total, sum)
	}
}

// extractSBS copies SBS n's demand into a 1-SBS tensor.
func extractSBS(in *model.Instance, n int) *model.Demand {
	d := model.NewDemand(in.T, []int{in.Classes[n]}, in.K)
	for t := 0; t < in.T; t++ {
		for m := 0; m < in.Classes[n]; m++ {
			for k := 0; k < in.K; k++ {
				d.Set(t, 0, m, k, in.Demand.At(t, n, m, k))
			}
		}
	}
	return d
}
