package caching

import (
	"context"
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

// TestWorkspaceIncrementalMatchesBaseline drives the delta-aware
// SolveAllRows path through a dual-iteration-shaped sequence of partial
// reward updates and checks it reproduces the per-call SolveAll baseline
// exactly — identical placements, bit-identical objective — including
// full-SBS skips (no reward row moved) and dirty-row-only retargeting
// (some rows moved). The all-clean round additionally asserts via the
// caching.p1_flow_solves counter that the workspace ran no flow solve.
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
	dirty := make([][]bool, in.T)
	for tt := range rewards {
		rewards[tt] = make([][]float64, in.N)
		dirty[tt] = make([]bool, in.N)
		for n := range rewards[tt] {
			rewards[tt][n] = make([]float64, in.K)
		}
	}
	// check returns the number of flow solves the workspace ran. The
	// counter is read around ws.SolveAllRows only: the package-level
	// SolveAll baseline bumps it too.
	check := func(iter int) int64 {
		t.Helper()
		wantPlans, wantObj, err := SolveAll(context.Background(), in, rewards)
		if err != nil {
			t.Fatal(err)
		}
		solves := mFlowSolves.Value()
		gotPlans, gotObj, err := ws.SolveAllRows(context.Background(), rewards, dirty)
		solves = mFlowSolves.Value() - solves
		if err != nil {
			t.Fatal(err)
		}
		if gotObj != wantObj {
			t.Fatalf("iter %d: incremental objective %v, baseline %v", iter, gotObj, wantObj)
		}
		for tt := range wantPlans {
			if !reflect.DeepEqual(gotPlans[tt], wantPlans[tt]) {
				t.Fatalf("iter %d slot %d: incremental plan diverges:\n got %v\nwant %v",
					iter, tt, gotPlans[tt], wantPlans[tt])
			}
		}
		return solves
	}
	for iter := 0; iter < 12; iter++ {
		for tt := range rewards {
			for n := range rewards[tt] {
				if iter == 0 {
					dirty[tt][n] = true
				} else {
					// Sparse updates: most rows stay put, like late dual
					// iterations where μ has largely converged.
					dirty[tt][n] = rng.Float64() < 0.3
				}
				if !dirty[tt][n] {
					continue
				}
				for k := range rewards[tt][n] {
					rewards[tt][n][k] = rng.Float64() * 40
				}
			}
		}
		check(iter)
	}

	// All-clean round: every SBS must be skipped without touching its
	// flow network.
	for tt := range dirty {
		for n := range dirty[tt] {
			dirty[tt][n] = false
		}
	}
	if solves := check(12); solves != 0 {
		t.Fatalf("all-clean round ran %d flow solves, want 0", solves)
	}

	// Rebinding the same instance must keep the graphs (cross-window
	// reuse) and still match the baseline on the next full solve.
	g0 := ws.nets[0].g
	ws.Bind(in)
	if ws.nets[0].g != g0 {
		t.Fatal("rebinding an identical instance rebuilt the flow network")
	}
	for tt := range dirty {
		for n := range dirty[tt] {
			dirty[tt][n] = true
			for k := range rewards[tt][n] {
				rewards[tt][n][k] = rng.Float64() * 40
			}
		}
	}
	check(13)
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
