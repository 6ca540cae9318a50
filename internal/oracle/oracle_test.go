package oracle

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"edgecache/internal/audit"
	"edgecache/internal/convex"
	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// tinyInstance builds an instance small enough for exhaustive enumeration.
func tinyInstance(t *testing.T, mutate func(*workload.InstanceConfig)) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 3
	cfg.K = 3
	cfg.ClassesPerSBS = 2
	cfg.CacheCap = 1
	cfg.Bandwidth = 4
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

// exhaustiveOptimum enumerates every joint state sequence (all SBSs, all
// slots), computes the exact load split per slot through a *different*
// code path than the oracle uses (loadbalance.OptimalGivenPlacement
// instead of the per-SBS SlotProblem), and evaluates the total cost with
// model.Instance.TotalCost. It is a deliberately brute, independent
// reference for the oracle's DP.
func exhaustiveOptimum(t *testing.T, in *model.Instance) float64 {
	t.Helper()
	// Joint per-slot states: the cartesian product of each SBS's
	// capacity-feasible subsets.
	perSBS := make([][]uint, in.N)
	for n := 0; n < in.N; n++ {
		for mask := uint(0); mask < 1<<in.K; mask++ {
			if bits.OnesCount(mask) <= in.CacheCap[n] {
				perSBS[n] = append(perSBS[n], mask)
			}
		}
	}
	var joint []model.CachePlan
	var build func(n int, cur model.CachePlan)
	build = func(n int, cur model.CachePlan) {
		if n == in.N {
			cp := model.NewCachePlan(in.N, in.K)
			for i := range cur {
				copy(cp[i], cur[i])
			}
			joint = append(joint, cp)
			return
		}
		for _, mask := range perSBS[n] {
			for k := 0; k < in.K; k++ {
				if mask&(1<<k) != 0 {
					cur[n][k] = 1
				} else {
					cur[n][k] = 0
				}
			}
			build(n+1, cur)
		}
	}
	build(0, model.NewCachePlan(in.N, in.K))

	// Optimal load split per (slot, joint state), memoised.
	splits := make([]map[int]model.LoadPlan, in.T)
	splitCost := make([]map[int]float64, in.T)
	for tt := 0; tt < in.T; tt++ {
		splits[tt] = make(map[int]model.LoadPlan, len(joint))
		splitCost[tt] = make(map[int]float64, len(joint))
		for si, x := range joint {
			y, err := loadbalance.OptimalGivenPlacement(in, tt, x)
			if err != nil {
				t.Fatalf("slot %d state %d: %v", tt, si, err)
			}
			splits[tt][si] = y
			splitCost[tt][si] = in.BSCost(tt, y) + in.SBSCost(tt, y)
		}
	}

	// Enumerate all sequences of joint states.
	best := math.Inf(1)
	var walk func(tt int, prev model.CachePlan, acc float64)
	walk = func(tt int, prev model.CachePlan, acc float64) {
		if acc >= best {
			return // branch-and-bound: costs only grow
		}
		if tt == in.T {
			best = acc
			return
		}
		for si, x := range joint {
			walk(tt+1, x, acc+in.ReplacementCost(prev, x)+splitCost[tt][si])
		}
	}
	walk(0, in.InitialPlan(), 0)
	return best
}

func TestOracleMatchesExhaustiveEnumeration(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*workload.InstanceConfig)
	}{
		{"1sbs", nil},
		{"1sbs-tight-bandwidth", func(cfg *workload.InstanceConfig) { cfg.Bandwidth = 1 }},
		{"1sbs-free-replacement", func(cfg *workload.InstanceConfig) { cfg.Beta = 0 }},
		{"2sbs", func(cfg *workload.InstanceConfig) {
			cfg.N = 2
			cfg.T = 2
			cfg.K = 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tinyInstance(t, tc.mutate)
			_, br, err := Solve(context.Background(), in, convex.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := exhaustiveOptimum(t, in)
			if math.Abs(br.Total-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("oracle DP %g != exhaustive optimum %g", br.Total, want)
			}
		})
	}
}

func TestOracleTrajectoryAuditsClean(t *testing.T) {
	in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.T = 4; cfg.K = 4; cfg.CacheCap = 2 })
	traj, br, err := Solve(context.Background(), in, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.Trajectory(in, traj, &br, audit.Options{})
	if !rep.OK() {
		t.Fatalf("oracle trajectory failed its own audit: %v", rep.Err())
	}
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestOracleAvoidsReplacementsUnderHugeBeta(t *testing.T) {
	// With an empty initial cache and a replacement cost dwarfing any
	// operating saving, the optimum is to never insert anything.
	in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.Beta = 1e12 })
	traj, br, err := Solve(context.Background(), in, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if br.Replacements != 0 || br.Replacement != 0 {
		t.Fatalf("oracle paid %g for %d replacements despite β = 1e12", br.Replacement, br.Replacements)
	}
	for tt := range traj {
		for n := 0; n < in.N; n++ {
			if items := traj[tt].X.Items(n); len(items) != 0 {
				t.Fatalf("slot %d SBS %d caches %v with an empty initial cache and β = 1e12", tt, n, items)
			}
		}
	}
}

func TestSolvableGuards(t *testing.T) {
	if err := Solvable(nil); err == nil {
		t.Fatal("Solvable accepted a nil instance")
	}
	in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.K = MaxK + 1; cfg.Bandwidth = 8 })
	if err := Solvable(in); err == nil {
		t.Fatalf("Solvable accepted K = %d", MaxK+1)
	}
	if _, _, err := Solve(context.Background(), in, convex.Options{}); err == nil {
		t.Fatal("Solve accepted an oversized catalogue")
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	in := tinyInstance(t, nil)
	in.N = 0
	if _, _, err := Solve(context.Background(), in, convex.Options{}); err == nil {
		t.Fatal("Solve accepted an invalid instance")
	}
}

func TestSolveHonoursCancellation(t *testing.T) {
	in := tinyInstance(t, func(cfg *workload.InstanceConfig) { cfg.K = 8; cfg.CacheCap = 3 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Solve(ctx, in, convex.Options{}); err == nil {
		t.Fatal("Solve ignored a cancelled context")
	}
}
