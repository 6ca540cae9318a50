package loadbalance

import (
	"context"
	"math/rand/v2"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// reuseTestInstance is the shared fixture of the workspace-reuse P2
// tests: small enough to iterate fast, with an SBS cost component (ŵ ≠ 0)
// so the non-greedy recovery path is exercised.
func reuseTestInstance(t *testing.T, horizon int) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = horizon
	cfg.K = 8
	cfg.ClassesPerSBS = 3
	cfg.OmegaSBSRatio = 0.3
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRecoveryReplayMatchesSolve checks that recovery leaves no state
// behind that a later call could read: a repeated Recover on a reused
// workspace returns the identical load split, and after one placement
// flips, the reused workspace's recovery equals a fresh workspace's.
func TestRecoveryReplayMatchesSolve(t *testing.T) {
	in := reuseTestInstance(t, 3)
	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(29, 7))
	opts := convex.Options{StepTol: 1e-7, MaxIter: 600}

	xPlans := make([]model.CachePlan, in.T)
	for tt := range xPlans {
		xPlans[tt] = model.NewCachePlan(in.N, in.K)
		for n := 0; n < in.N; n++ {
			for k := 0; k < in.K; k++ {
				if rng.Float64() < 0.5 {
					xPlans[tt][n][k] = 1
				}
			}
		}
	}
	same := func(label string, got, want model.Trajectory) {
		t.Helper()
		for tt := range want {
			for n := range want[tt].Y {
				for m := range want[tt].Y[n] {
					for k, v := range want[tt].Y[n][m] {
						if got[tt].Y[n][m][k] != v {
							t.Fatalf("%s recovery diverged at (t=%d, n=%d, m=%d, k=%d)", label, tt, n, m, k)
						}
					}
				}
			}
		}
	}
	fresh := func() model.Trajectory {
		t.Helper()
		wsFresh := NewWorkspace()
		wsFresh.Bind(in)
		want, err := wsFresh.Recover(context.Background(), xPlans, opts)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	first, err := ws.Recover(context.Background(), xPlans, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ws.Recover(context.Background(), xPlans, opts)
	if err != nil {
		t.Fatal(err)
	}
	same("repeated", second, first)
	same("reused-workspace", second, fresh())

	// Flip one placement: the reused workspace must match a fresh
	// workspace's recovery of the new placements.
	xPlans[1][0][2] = 1 - xPlans[1][0][2]
	third, err := ws.Recover(context.Background(), xPlans, opts)
	if err != nil {
		t.Fatal(err)
	}
	same("post-flip", third, fresh())
}
