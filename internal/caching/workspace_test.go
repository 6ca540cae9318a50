package caching

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"edgecache/internal/workload"
)

// TestWorkspaceMatchesSolveAll drives a bound workspace through a sequence
// of reward updates — the shape of a primal-dual run — and checks every
// iteration reproduces the per-call SolveAll path exactly: identical
// placements and identical objective, including across graph reuse.
func TestWorkspaceMatchesSolveAll(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 3
	cfg.T = 5
	cfg.K = 7
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(7, 11))
	rewards := make([][][]float64, in.T)
	for tt := range rewards {
		rewards[tt] = make([][]float64, in.N)
		for n := range rewards[tt] {
			rewards[tt][n] = make([]float64, in.K)
		}
	}
	for iter := 0; iter < 8; iter++ {
		for tt := range rewards {
			for n := range rewards[tt] {
				for k := range rewards[tt][n] {
					rewards[tt][n][k] = rng.Float64() * 40
				}
			}
		}
		wantPlans, wantObj, err := SolveAll(context.Background(), in, rewards)
		if err != nil {
			t.Fatal(err)
		}
		gotPlans, gotObj, err := ws.SolveAll(context.Background(), rewards)
		if err != nil {
			t.Fatal(err)
		}
		if gotObj != wantObj {
			t.Fatalf("iter %d: workspace objective %v, per-call %v", iter, gotObj, wantObj)
		}
		if len(gotPlans) != len(wantPlans) {
			t.Fatalf("iter %d: %d plans, want %d", iter, len(gotPlans), len(wantPlans))
		}
		for tt := range wantPlans {
			if !reflect.DeepEqual(gotPlans[tt], wantPlans[tt]) {
				t.Fatalf("iter %d slot %d: workspace plan diverges:\n got %v\nwant %v",
					iter, tt, gotPlans[tt], wantPlans[tt])
			}
		}
	}

	// Rebinding to a differently-shaped instance must resize cleanly.
	cfg.T = 3
	cfg.K = 5
	in2, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws.Bind(in2)
	rewards2 := make([][][]float64, in2.T)
	for tt := range rewards2 {
		rewards2[tt] = make([][]float64, in2.N)
		for n := range rewards2[tt] {
			rewards2[tt][n] = make([]float64, in2.K)
			for k := range rewards2[tt][n] {
				rewards2[tt][n][k] = rng.Float64() * 40
			}
		}
	}
	wantPlans, wantObj, err := SolveAll(context.Background(), in2, rewards2)
	if err != nil {
		t.Fatal(err)
	}
	gotPlans, gotObj, err := ws.SolveAll(context.Background(), rewards2)
	if err != nil {
		t.Fatal(err)
	}
	if gotObj != wantObj || !reflect.DeepEqual(gotPlans, wantPlans) {
		t.Fatalf("after rebind: workspace diverges from per-call path")
	}
}

// TestWorkspaceIncrementalMatchesBaseline drives one bound workspace
// through a dual-iteration-shaped sequence of partial reward updates —
// most rows stay put between calls, like late dual iterations where μ has
// largely converged — and checks every call reproduces the per-call
// SolveAll baseline exactly: identical placements, bit-identical
// objective. Every call must re-solve every SBS (the caching.p1_flow_solves
// counter rises by N), including a call where no reward moved, and
// rebinding the same instance must keep the flow networks.
func TestWorkspaceIncrementalMatchesBaseline(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 3
	cfg.T = 5
	cfg.K = 7
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(19, 5))
	rewards := make([][][]float64, in.T)
	for tt := range rewards {
		rewards[tt] = make([][]float64, in.N)
		for n := range rewards[tt] {
			rewards[tt][n] = make([]float64, in.K)
		}
	}
	// update redraws each reward row with probability share.
	update := func(share float64) {
		for tt := range rewards {
			for n := range rewards[tt] {
				if rng.Float64() >= share {
					continue
				}
				for k := range rewards[tt][n] {
					rewards[tt][n][k] = rng.Float64() * 40
				}
			}
		}
	}
	// check compares the workspace with the baseline. The counter is read
	// around ws.SolveAll only: the package-level SolveAll bumps it too.
	check := func(iter int) {
		t.Helper()
		wantPlans, wantObj, err := SolveAll(context.Background(), in, rewards)
		if err != nil {
			t.Fatal(err)
		}
		solves := mFlowSolves.Value()
		gotPlans, gotObj, err := ws.SolveAll(context.Background(), rewards)
		solves = mFlowSolves.Value() - solves
		if err != nil {
			t.Fatal(err)
		}
		if solves != int64(in.N) {
			t.Fatalf("iter %d: workspace ran %d flow solves, want one per SBS (%d)", iter, solves, in.N)
		}
		if gotObj != wantObj {
			t.Fatalf("iter %d: workspace objective %v, baseline %v", iter, gotObj, wantObj)
		}
		for tt := range wantPlans {
			if !reflect.DeepEqual(gotPlans[tt], wantPlans[tt]) {
				t.Fatalf("iter %d slot %d: workspace plan diverges:\n got %v\nwant %v",
					iter, tt, gotPlans[tt], wantPlans[tt])
			}
		}
	}
	update(1)
	check(0)
	for iter := 1; iter < 12; iter++ {
		update(0.3)
		check(iter)
	}
	// No reward moved: still a full re-solve with the same answer.
	check(12)

	// Rebinding the same instance must keep the graphs (cross-window
	// reuse) and still match the baseline on the next full solve.
	g0 := ws.nets[0].g
	ws.Bind(in)
	if ws.nets[0].g != g0 {
		t.Fatal("rebinding an identical instance rebuilt the flow network")
	}
	update(1)
	check(13)
}

// TestWorkspaceRejectsInvalidReward checks that a workspace which has
// already solved validates every reward on every call: a NaN, negative or
// infinite reward in any (t, n) row fails the next SolveAll, and the
// following valid call still matches the package-level SolveAll exactly.
func TestWorkspaceRejectsInvalidReward(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 3
	cfg.K = 5
	cfg.ClassesPerSBS = 2
	cfg.CacheCap = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(23, 9))
	rewards := make([][][]float64, in.T)
	for tt := range rewards {
		rewards[tt] = make([][]float64, in.N)
		for n := range rewards[tt] {
			rewards[tt][n] = make([]float64, in.K)
			for k := range rewards[tt][n] {
				rewards[tt][n][k] = rng.Float64() * 20
			}
		}
	}
	if _, _, err := ws.SolveAll(context.Background(), rewards); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
		for tt := 0; tt < in.T; tt++ {
			for n := 0; n < in.N; n++ {
				k := rng.IntN(in.K)
				good := rewards[tt][n][k]
				rewards[tt][n][k] = bad
				if _, _, err := ws.SolveAll(context.Background(), rewards); err == nil {
					t.Fatalf("reward[%d][%d][%d] = %g accepted by a solved workspace", tt, n, k, bad)
				}
				rewards[tt][n][k] = good
				wantPlans, wantObj, err := SolveAll(context.Background(), in, rewards)
				if err != nil {
					t.Fatal(err)
				}
				gotPlans, gotObj, err := ws.SolveAll(context.Background(), rewards)
				if err != nil {
					t.Fatalf("valid call after rejected reward[%d][%d][%d] = %g: %v", tt, n, k, bad, err)
				}
				if gotObj != wantObj || !reflect.DeepEqual(gotPlans, wantPlans) {
					t.Fatalf("valid call after rejected reward[%d][%d][%d] = %g diverges from the per-call path", tt, n, k, bad)
				}
			}
		}
	}
}

// TestWorkspaceCancellation mirrors the per-call path's cancellation
// contract: a done context returns a wrapped ctx.Err().
func TestWorkspaceCancellation(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 3
	cfg.K = 4
	cfg.ClassesPerSBS = 2
	cfg.CacheCap = 1
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Bind(in)
	rewards := make([][][]float64, in.T)
	for tt := range rewards {
		rewards[tt] = make([][]float64, in.N)
		for n := range rewards[tt] {
			rewards[tt][n] = make([]float64, in.K)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ws.SolveAll(ctx, rewards); err == nil {
		t.Fatal("workspace SolveAll ignored cancelled context")
	}
}
