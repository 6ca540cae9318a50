package online

import (
	"context"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

func TestShiftMuAlignsOverlap(t *testing.T) {
	in, _ := smallInstance(t, nil)
	// Previous window [2, 6), next window [3, 7): slots 3..5 overlap.
	prevFrom, prevTo := 2, 6
	mu := make([][][]float64, prevTo-prevFrom)
	for i := range mu {
		mu[i] = make([][]float64, in.N)
		for n := range mu[i] {
			mu[i][n] = make([]float64, in.Classes[n]*in.K)
			mu[i][n][0] = float64(prevFrom + i) // tag with absolute slot
		}
	}
	out := shiftMu(mu, prevFrom, prevTo, 3, 7, in)
	if len(out) != 4 {
		t.Fatalf("shifted window has %d slots", len(out))
	}
	for i := 0; i < 3; i++ {
		if got, want := out[i][0][0], float64(3+i); got != want {
			t.Fatalf("slot %d carries µ from absolute slot %g, want %g", i, got, want)
		}
	}
	if out[3][0][0] != 0 {
		t.Fatalf("new slot not zero-initialised: %g", out[3][0][0])
	}
}

func TestRunVersionStartupCoversEarlySlots(t *testing.T) {
	in, pred := smallInstance(t, nil)
	cfg, err := CHC(4, 2).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Version 1 of r = 2 first solves at τ = −1 and must still commit
	// slot 0 (Ψ_v reaches into negative time, per Algorithm 3).
	xa := make([]model.CachePlan, in.T)
	ya := make([]model.LoadPlan, in.T)
	vs := newVersionState(in, pred, cfg, 1, nil, nil, xa, ya)
	if err := vs.runTo(context.Background(), in.T); err != nil {
		t.Fatal(err)
	}
	stats := vs.stats
	for tt := 0; tt < in.T; tt++ {
		if xa[tt] == nil || ya[tt] == nil {
			t.Fatalf("version 1 left slot %d uncommitted", tt)
		}
	}
	if stats.Solves == 0 || stats.DualIters == 0 {
		t.Fatalf("no solver effort recorded: %+v", stats)
	}
}

func TestVersionsCommitDisjointBlocks(t *testing.T) {
	in, pred := smallInstance(t, nil)
	cfg, err := CHC(4, 2).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Version 0 solves at τ = 0, 2, 4, …; between consecutive solves the
	// committed placements must be feasible and integral.
	xa := make([]model.CachePlan, in.T)
	ya := make([]model.LoadPlan, in.T)
	vs := newVersionState(in, pred, cfg, 0, nil, nil, xa, ya)
	if err := vs.runTo(context.Background(), in.T); err != nil {
		t.Fatal(err)
	}
	stats := vs.stats
	for tt, x := range xa {
		if !x.IsIntegral(0) {
			t.Fatalf("slot %d: version placement fractional", tt)
		}
		if len(x.Items(0)) > in.CacheCap[0] {
			t.Fatalf("slot %d: version placement over capacity", tt)
		}
	}
	// T = 12, r = 2 → 6 solves.
	if stats.Solves != in.T/2 {
		t.Fatalf("version 0 made %d solves, want %d", stats.Solves, in.T/2)
	}
}

func TestPredictorSharedAcrossVersionsIsDeterministic(t *testing.T) {
	in, _ := smallInstance(t, nil)
	pred, err := workload.NewPredictor(in.Demand, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), in, pred, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), in, pred, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	ca := in.TotalCost(a.Trajectory)
	cb := in.TotalCost(b.Trajectory)
	if ca != cb {
		t.Fatalf("parallel version execution non-deterministic: %+v vs %+v", ca, cb)
	}
}
