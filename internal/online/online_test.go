package online

import (
	"context"
	"strings"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// smallInstance builds a quick-to-solve online test instance.
func smallInstance(t *testing.T, mutate func(*workload.InstanceConfig)) (*model.Instance, *workload.Predictor) {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 12
	cfg.K = 6
	cfg.ClassesPerSBS = 4
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 5
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := workload.NewPredictor(in.Demand, 0.1, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return in, pred
}

func TestConfigNames(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{RHC(10), "RHC(w=10)"},
		{AFHC(8), "AFHC(w=8)"},
		{CHC(10, 5), "CHC(w=10,r=5)"},
	}
	for _, tc := range tests {
		if got := tc.cfg.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	in, pred := smallInstance(t, nil)
	bad := []Config{
		{Window: 0},
		{Window: 4, Commitment: 5},
		{Window: 4, Commitment: -1},
		{Window: 4, Commitment: 2, Rho: 1.5},
		{Window: 4, Commitment: 2, LoadMode: LoadMode(9)},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), in, pred, cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := Run(context.Background(), in, nil, RHC(4)); err == nil {
		t.Error("Run accepted nil predictor")
	}
	other, _ := smallInstance(t, func(c *workload.InstanceConfig) { c.Seed = 99 })
	if _, err := Run(context.Background(), in, mustPredictor(t, other), RHC(4)); err == nil {
		t.Error("Run accepted predictor with foreign truth")
	}
}

func mustPredictor(t *testing.T, in *model.Instance) *workload.Predictor {
	t.Helper()
	p, err := workload.NewPredictor(in.Demand, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRHCProducesFeasibleIntegralTrajectory(t *testing.T) {
	in, pred := smallInstance(t, nil)
	res, err := Run(context.Background(), in, pred, RHC(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != in.T {
		t.Fatalf("trajectory has %d slots, want %d", len(res.Trajectory), in.T)
	}
	for tt, dec := range res.Trajectory {
		if !dec.X.IsIntegral(0) {
			t.Fatalf("slot %d: fractional placement", tt)
		}
	}
	if err := in.CheckTrajectory(res.Trajectory, 1e-6); err != nil {
		t.Fatal(err)
	}
	if res.WindowSolves != in.T {
		t.Fatalf("RHC made %d window solves, want %d", res.WindowSolves, in.T)
	}
}

func TestCHCAndAFHCFeasible(t *testing.T) {
	in, pred := smallInstance(t, nil)
	for _, cfg := range []Config{CHC(4, 2), AFHC(4)} {
		res, err := Run(context.Background(), in, pred, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if err := in.CheckTrajectory(res.Trajectory, 1e-6); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		for tt, dec := range res.Trajectory {
			if !dec.X.IsIntegral(0) {
				t.Fatalf("%s slot %d: fractional placement after rounding", cfg.Name(), tt)
			}
			for n := 0; n < in.N; n++ {
				if len(dec.X.Items(n)) > in.CacheCap[n] {
					t.Fatalf("%s slot %d: capacity exceeded after rounding", cfg.Name(), tt)
				}
			}
		}
	}
}

func TestReactiveMode(t *testing.T) {
	in, pred := smallInstance(t, nil)
	cfg := RHC(4)
	cfg.LoadMode = LoadReactive
	res, err := Run(context.Background(), in, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckTrajectory(res.Trajectory, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectPredictionRHCNearOffline(t *testing.T) {
	in, _ := smallInstance(t, nil)
	pred, err := workload.NewPredictor(in.Demand, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full-horizon window + exact predictions ⇒ RHC should be close to the
	// offline solve (same solver, same information).
	res, err := Run(context.Background(), in, pred, RHC(in.T))
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.Solve(context.Background(), in, core.Options{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	onCost := in.TotalCost(res.Trajectory).Total
	if onCost > off.Cost.Total*1.25+1e-9 {
		t.Fatalf("full-window RHC %g much worse than offline %g", onCost, off.Cost.Total)
	}
}

func TestPredictedLoadZeroesAndRescales(t *testing.T) {
	in, _ := smallInstance(t, func(c *workload.InstanceConfig) { c.Bandwidth = 1 })
	x := model.NewCachePlan(in.N, in.K)
	x[0][0] = 1
	avgY := model.NewLoadPlan(in.Classes, in.K)
	for m := 0; m < in.Classes[0]; m++ {
		avgY[0][m][0] = 1
		avgY[0][m][1] = 0.7 // not cached → must be zeroed
	}
	y, repaired := predictedLoad(in, 0, x, avgY)
	row := in.Demand.CopySlot(nil, 0, 0)
	var rawLoad float64
	for m := 0; m < in.Classes[0]; m++ {
		rawLoad += row[m*in.K] // avgY = 1 for the cached content
	}
	if wantRepair := rawLoad > in.Bandwidth[0]; wantRepair != (repaired == 1) {
		t.Fatalf("repaired = %d with raw load %g vs bandwidth %g", repaired, rawLoad, in.Bandwidth[0])
	}
	var load float64
	for m := 0; m < in.Classes[0]; m++ {
		if y[0][m][1] != 0 {
			t.Fatalf("uncached content served: %g", y[0][m][1])
		}
		load += row[m*in.K] * y[0][m][0]
	}
	if load > in.Bandwidth[0]+1e-9 {
		t.Fatalf("load %g exceeds bandwidth %g after rescale", load, in.Bandwidth[0])
	}
}

func TestLoadModeString(t *testing.T) {
	if LoadPredicted.String() != "predicted" || LoadReactive.String() != "reactive" {
		t.Fatal("LoadMode.String mismatch")
	}
	if !strings.Contains(LoadMode(7).String(), "7") {
		t.Fatal("unknown LoadMode not reported")
	}
}

func TestLargerWindowHelpsOnAverage(t *testing.T) {
	// With drifting demand and modest noise, w = 6 should beat w = 1 — the
	// central claim behind Fig. 3a. A single seed could be unlucky, so
	// average over a few.
	var short, long float64
	for seed := uint64(1); seed <= 3; seed++ {
		in, pred := smallInstance(t, func(c *workload.InstanceConfig) {
			c.Seed = seed
			c.Workload.Jitter = 0.3
			c.Beta = 20
		})
		rs, err := Run(context.Background(), in, pred, RHC(1))
		if err != nil {
			t.Fatal(err)
		}
		rl, err := Run(context.Background(), in, pred, RHC(6))
		if err != nil {
			t.Fatal(err)
		}
		short += in.TotalCost(rs.Trajectory).Total
		long += in.TotalCost(rl.Trajectory).Total
	}
	if long > short*1.02 {
		t.Fatalf("w=6 cost %g worse than w=1 cost %g", long, short)
	}
}

func TestFHCSingleVersion(t *testing.T) {
	in, pred := smallInstance(t, nil)
	res, err := Run(context.Background(), in, pred, FHC(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckTrajectory(res.Trajectory, 1e-6); err != nil {
		t.Fatal(err)
	}
	// T = 12, w = 4 → exactly 3 window solves (one version).
	if res.WindowSolves != 3 {
		t.Fatalf("FHC made %d solves, want 3", res.WindowSolves)
	}
	if got := FHC(4).Name(); got != "FHC(w=4)" {
		t.Fatalf("Name = %q", got)
	}
	// FHC's committed actions are integral window solutions: no rounding
	// artefacts, so the relaxed and committed placements coincide.
	for tt, dec := range res.Trajectory {
		if !dec.X.IsIntegral(0) {
			t.Fatalf("slot %d fractional", tt)
		}
	}
}

func TestAFHCAveragesFHCVersions(t *testing.T) {
	// Sanity relation: AFHC's window-solve count is w× FHC's (staggered
	// copies), modulo boundary effects.
	in, pred := smallInstance(t, nil)
	fhc, err := Run(context.Background(), in, pred, FHC(4))
	if err != nil {
		t.Fatal(err)
	}
	afhc, err := Run(context.Background(), in, pred, AFHC(4))
	if err != nil {
		t.Fatal(err)
	}
	if afhc.WindowSolves <= fhc.WindowSolves {
		t.Fatalf("AFHC made %d solves, FHC %d", afhc.WindowSolves, fhc.WindowSolves)
	}
}
