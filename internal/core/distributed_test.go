package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

func multiInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 3
	cfg.T = 5
	cfg.K = 6
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 5
	cfg.Beta = 8
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPerSBSExtraction(t *testing.T) {
	in := multiInstance(t)
	in.InitialCache = model.NewCachePlan(in.N, in.K)
	in.InitialCache[1][3] = 1
	sub, err := in.PerSBS(1)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N != 1 || sub.K != in.K || sub.T != in.T {
		t.Fatalf("sub shape N=%d K=%d T=%d", sub.N, sub.K, sub.T)
	}
	if sub.InitialCache[0][3] != 1 {
		t.Fatal("initial cache not carried over")
	}
	if sub.Demand.At(2, 0, 1, 4) != in.Demand.At(2, 1, 1, 4) {
		t.Fatal("demand not carried over")
	}
	if _, err := in.PerSBS(-1); err == nil {
		t.Fatal("accepted negative SBS")
	}
	if _, err := in.PerSBS(3); err == nil {
		t.Fatal("accepted out-of-range SBS")
	}
}

// TestDistributedMatchesJoint checks the distributed deployment — one
// independent Algorithm 1 run per SBS shard (SolveSharded), densified
// back into the joint trajectory — against the joint Solve: the problem
// separates across SBSs, so both must land on the same cost.
func TestDistributedMatchesJoint(t *testing.T) {
	in := multiInstance(t)
	opts := Options{MaxIter: 30}
	joint, err := Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SolveSharded(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	traj := dist.Densify(in)
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		t.Fatalf("distributed trajectory infeasible: %v", err)
	}
	// Separability: the two must land on (essentially) the same cost. The
	// joint run could in principle differ through solver tolerances only.
	if math.Abs(joint.Cost.Total-dist.Cost.Total) > 0.01*joint.Cost.Total {
		t.Fatalf("joint %g vs distributed %g", joint.Cost.Total, dist.Cost.Total)
	}
	// Reported breakdown must match the merged trajectory exactly.
	br := in.TotalCost(traj)
	if math.Abs(br.Total-dist.Cost.Total) > 1e-9*(1+br.Total) {
		t.Fatalf("reported %g != recomputed %g", dist.Cost.Total, br.Total)
	}
	if dist.Cost.Replacements != br.Replacements {
		t.Fatalf("replacement counts disagree: %d vs %d", dist.Cost.Replacements, br.Replacements)
	}
	// Lower bounds sum to a valid bound on the joint optimum.
	if dist.LowerBound > dist.Cost.Total+1e-6 {
		t.Fatalf("aggregate LB %g exceeds cost %g", dist.LowerBound, dist.Cost.Total)
	}
}

// TestDistributedSingleSBSDelegates checks that on a dense single-SBS
// instance the one shard is the whole problem: the sharded solve is a
// plain Solve, trajectory and bounds included.
func TestDistributedSingleSBSDelegates(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.T = 4
	cfg.K = 5
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 4
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Solve(context.Background(), in, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveSharded(context.Background(), in, Options{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.LowerBound != b.LowerBound || a.Gap != b.Gap {
		t.Fatalf("single-SBS shard diverges from Solve: cost %+v vs %+v, LB %g vs %g, gap %g vs %g",
			a.Cost, b.Cost, a.LowerBound, b.LowerBound, a.Gap, b.Gap)
	}
	if !reflect.DeepEqual(a.Trajectory, b.Densify(in)) {
		t.Fatal("single-SBS shard trajectory diverges from Solve")
	}
}

func TestDistributedValidates(t *testing.T) {
	in := multiInstance(t)
	in.T = 0
	if _, err := SolveSharded(context.Background(), in, Options{}); err == nil {
		t.Fatal("accepted invalid instance")
	}
}
