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

// TestBindAdvanceMatchesBind slides a workspace across overlapping
// windows of one long instance and checks both halves of the contract:
// the rotated rebind, which keeps each surviving slot's coefficient
// precompute, is indistinguishable from a fresh Bind loaded with the
// rotated iterates (bit-identical solves), and the first solve of the new
// window equals the reference path warm-started from the previous
// window's iterate for the same absolute slot.
func TestBindAdvanceMatchesBind(t *testing.T) {
	full := reuseTestInstance(t, 6)
	const w = 4
	win := func(from int) *model.Instance {
		sub, err := full.Window(from, from+w, full.InitialPlan(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	opts := convex.Options{StepTol: 1e-7, MaxIter: 600}
	rng := rand.New(rand.NewPCG(17, 4))

	w0, w1 := win(0), win(1)
	muW0 := randomMu(rng, w0, 1.5)
	muW1 := randomMu(rng, w1, 1.5)

	// Coefficient reuse: BindAdvance must reproduce Bind + ImportIterates
	// of the rotated iterates bit for bit. New slot t < w−1 carries old
	// slot t+1; the entering slot starts from zero.
	wsA := NewWorkspace()
	wsA.Bind(w0)
	if _, err := wsA.SolveDual(context.Background(), muW0, opts); err != nil {
		t.Fatal(err)
	}
	rotatedY := make([][]float64, 0, w1.T*w1.N)
	for tt := 0; tt < w1.T; tt++ {
		for n := 0; n < w1.N; n++ {
			if tt+1 < w0.T {
				rotatedY = append(rotatedY, append([]float64(nil), wsA.DualY(tt+1, n)...))
			} else {
				rotatedY = append(rotatedY, make([]float64, w1.Classes[n]*w1.K))
			}
		}
	}
	rotated := wsA.slots[1*w0.N] // state of absolute slot 1 before the slide
	wsA.BindAdvance(w1, 1)
	if wsA.slots[0] != rotated {
		t.Fatal("BindAdvance did not rotate the overlapping slot state by pointer")
	}
	wsFresh := NewWorkspace()
	wsFresh.Bind(w1)
	if err := wsFresh.ImportIterates(rotatedY); err != nil {
		t.Fatal(err)
	}
	gotA, err := wsA.SolveDual(context.Background(), muW1, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsFresh.SolveDual(context.Background(), muW1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotA != want {
		t.Fatalf("BindAdvance total %v, Bind + ImportIterates total %v", gotA, want)
	}
	for tt := 0; tt < w1.T; tt++ {
		for n := 0; n < w1.N; n++ {
			yA, yF := wsA.DualY(tt, n), wsFresh.DualY(tt, n)
			for i := range yA {
				if yA[i] != yF[i] {
					t.Fatalf("(t=%d, n=%d, i=%d): advanced %v, Bind + ImportIterates %v", tt, n, i, yA[i], yF[i])
				}
			}
		}
	}

	// Carry: the rotated slots start from the previous window's iterate
	// for the same absolute slot; the solve must equal the reference path
	// warm-started from exactly that iterate.
	wsC := NewWorkspace()
	wsC.Bind(w0)
	if _, err := wsC.SolveDual(context.Background(), muW0, opts); err != nil {
		t.Fatal(err)
	}
	carried := make([][]float64, 0, (w-1)*w0.N)
	for tt := 1; tt < w; tt++ {
		for n := 0; n < w0.N; n++ {
			carried = append(carried, append([]float64(nil), wsC.DualY(tt, n)...))
		}
	}
	wsC.BindAdvance(w1, 1)
	for i, tt := 0, 0; tt < w-1; tt++ {
		for n := 0; n < w1.N; n++ {
			y := wsC.DualY(tt, n)
			for j := range y {
				if y[j] != carried[i][j] {
					t.Fatalf("BindAdvance dropped the iterate at (t=%d, n=%d, j=%d)", tt, n, j)
				}
			}
			i++
		}
	}
	if _, err := wsC.SolveDual(context.Background(), muW1, opts); err != nil {
		t.Fatal(err)
	}
	for i, tt := 0, 0; tt < w-1; tt++ {
		for n := 0; n < w1.N; n++ {
			sp := ForInstance(w1, tt, n, muW1[tt][n], nil)
			wantY, _, err := sp.Solve(carried[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			got := wsC.DualY(tt, n)
			for j := range got {
				if got[j] != wantY[j] {
					t.Fatalf("carried solve (t=%d, n=%d, j=%d): workspace %v, reference %v", tt, n, j, got[j], wantY[j])
				}
			}
			i++
		}
	}
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
