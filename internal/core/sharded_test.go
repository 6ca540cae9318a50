package core

import (
	"context"
	"math"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

func sparseMultiInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 3
	cfg.T = 5
	cfg.K = 24
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 5
	cfg.Beta = 8
	in, err := workload.BuildInstanceWith(cfg, workload.WithSparse(6))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveShardedMatchesPerSBSSolves(t *testing.T) {
	in := sparseMultiInstance(t)
	opts := Options{MaxIter: 30}

	sharded, err := SolveSharded(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Shards) != in.N {
		t.Fatalf("%d shards for %d SBSs", len(sharded.Shards), in.N)
	}

	var wantCost, wantLB float64
	for n := 0; n < in.N; n++ {
		sub, err := in.PerSBS(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(context.Background(), sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantCost += res.Cost.Total
		wantLB += res.LowerBound
	}
	// The compact shard is the same optimisation problem as the full
	// per-SBS sub-instance (dropped items never carry demand or cache
	// bits), so both runs land on the same costs up to solver tie-breaks.
	if rel := math.Abs(sharded.Cost.Total-wantCost) / math.Max(wantCost, 1); rel > 0.01 {
		t.Fatalf("sharded cost %g vs per-SBS %g (rel %g)", sharded.Cost.Total, wantCost, rel)
	}
	if rel := math.Abs(sharded.LowerBound-wantLB) / math.Max(math.Abs(wantLB), 1); rel > 0.01 {
		t.Fatalf("sharded LB %g vs per-SBS %g (rel %g)", sharded.LowerBound, wantLB, rel)
	}
	if sharded.LowerBound > sharded.Cost.Total+1e-6 {
		t.Fatalf("LB %g exceeds cost %g", sharded.LowerBound, sharded.Cost.Total)
	}

	// The densified trajectory must be feasible and integral, reproduce
	// the reported cost exactly, and place items only within each shard's
	// candidate set.
	traj := sharded.Densify(in)
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		t.Fatalf("densified trajectory infeasible: %v", err)
	}
	br := in.TotalCost(traj)
	if math.Abs(br.Total-sharded.Cost.Total) > 1e-6*math.Max(br.Total, 1) {
		t.Fatalf("densified cost %g vs reported %g", br.Total, sharded.Cost.Total)
	}
	for _, sh := range sharded.Shards {
		cands := map[int]bool{}
		for _, k := range sh.Candidates {
			cands[k] = true
		}
		for tt := range sh.Placements {
			if len(sh.Placements[tt]) != len(sh.Loads[tt]) {
				t.Fatalf("shard %d slot %d: %d placements, %d load rows",
					sh.SBS, tt, len(sh.Placements[tt]), len(sh.Loads[tt]))
			}
			for _, k := range sh.Placements[tt] {
				if !cands[k] {
					t.Fatalf("shard %d cached non-candidate item %d", sh.SBS, k)
				}
			}
		}
	}
}

func TestSolveShardedRejectsWarmStart(t *testing.T) {
	in := sparseMultiInstance(t)
	mu := make([][][]float64, in.T)
	if _, err := SolveSharded(context.Background(), in, Options{InitialMu: mu}); err == nil {
		t.Fatal("accepted a global warm start")
	}
}

// TestSolveShardedGapMatchesResultDefinition pins the aggregate Gap to
// Result.Gap's definition, max(0, (UB − LB) / max(|UB|, 1)). On a
// low-cost instance (UB ≈ 0.0186, LB ≈ 0.0170) dividing by UB alone
// reports 0.090 instead of 0.0017 — a gap every shard would call
// converged-scale looks fifty times worse in aggregate.
func TestSolveShardedGapMatchesResultDefinition(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 3
	cfg.T = 5
	cfg.K = 6
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 5
	cfg.Beta = 0.01
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Demand = in.Demand.Map(func(_, _, _, _ int, v float64) float64 { return 0.01 * v })

	res, err := SolveSharded(context.Background(), in, Options{MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	ub, lb := res.Cost.Total, res.LowerBound
	if ub >= 1 || lb >= ub {
		t.Fatalf("instance no longer exercises |UB| < 1 with a positive gap: UB %g, LB %g", ub, lb)
	}
	want := math.Max(0, (ub-lb)/math.Max(math.Abs(ub), 1))
	if res.Gap != want {
		t.Fatalf("aggregate gap %g, want %g (UB %g, LB %g)", res.Gap, want, ub, lb)
	}
}
