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
// workspace into the same trajectory returns the identical load split,
// and after one placement flips, the reused workspace's recovery equals
// a fresh workspace's.
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
	recoverInto := func(ws *Workspace, dst model.Trajectory) model.Trajectory {
		t.Helper()
		if err := ws.Recover(context.Background(), xPlans, dst, opts); err != nil {
			t.Fatal(err)
		}
		for tt := range dst {
			for n := range dst[tt].X {
				for k, v := range dst[tt].X[n] {
					if v != xPlans[tt][n][k] {
						t.Fatalf("recovered placement differs at (t=%d, n=%d, k=%d)", tt, n, k)
					}
				}
			}
		}
		return dst
	}
	fresh := func() model.Trajectory {
		t.Helper()
		wsFresh := NewWorkspace()
		wsFresh.Bind(in)
		return recoverInto(wsFresh, model.NewTrajectory(in))
	}

	// The repeated recoveries write into one reused trajectory, so each
	// overwrites the last one's load split.
	dst := model.NewTrajectory(in)
	first := recoverInto(ws, dst).Clone()
	second := recoverInto(ws, dst)
	same("repeated", second, first)
	same("reused-workspace", second, fresh())

	// Flip one placement: the reused workspace must match a fresh
	// workspace's recovery of the new placements.
	xPlans[1][0][2] = 1 - xPlans[1][0][2]
	third := recoverInto(ws, dst)
	same("post-flip", third, fresh())
}

// TestRebindZeroAllocs checks that a window rebind is allocation-free:
// a second Bind of the same instance, dense (every act nil) or sparse,
// refills the buffers of the first.
func TestRebindZeroAllocs(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 6
	dense, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *model.Instance
	}{{"dense", dense}, {"sparse", sparseInstance(t)}} {
		ws := NewWorkspace()
		ws.Bind(c.in)
		nilAct := 0
		for i := range ws.slots {
			if ws.slots[i].act == nil {
				nilAct++
			}
		}
		if dense := c.name == "dense"; dense != (nilAct == len(ws.slots)) {
			t.Fatalf("%s: %d of %d slots have every position active", c.name, nilAct, len(ws.slots))
		}
		if allocs := testing.AllocsPerRun(10, func() { ws.Bind(c.in) }); allocs != 0 {
			t.Fatalf("%s: rebind allocates %.0f objects, want 0", c.name, allocs)
		}
	}
}
