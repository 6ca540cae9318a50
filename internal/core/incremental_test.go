package core

import (
	"context"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// TestSolveIncrementalMatchesDisabled pins the tentpole contract of the
// delta-aware dual loop: with the incremental machinery on (μ-row dirty
// tracking, reward-row recompute skips, P1 dirty-row retargeting and SBS
// skips, P2 fixed-point skips) every Solve result — trajectory, bounds,
// multipliers, iteration counts — is bit-identical to the ablated
// from-scratch loop.
func TestSolveIncrementalMatchesDisabled(t *testing.T) {
	for _, ratio := range []float64{0, 0.25} {
		cfg := mediumInstance(t, func(c *workload.InstanceConfig) { c.OmegaSBSRatio = ratio })
		in, err := workload.BuildInstance(*cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Enough iterations that μ settles and rows actually go clean —
		// otherwise the skip paths are never exercised.
		opts := Options{MaxIter: 25}
		inc, err := Solve(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}

		ablated := opts
		ablated.DisableIncremental = true
		ref, err := Solve(context.Background(), in, ablated)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(inc, ref) {
			t.Fatalf("ratio=%g: incremental solve diverges from the from-scratch loop", ratio)
		}

		// Reused workspaces on both sides: the incremental path must also
		// survive warm, previously-dirtied solver state.
		incWS, refWS := opts, ablated
		incWS.Workspace = NewWorkspace()
		refWS.Workspace = NewWorkspace()
		for round := 0; round < 2; round++ {
			got, err := Solve(context.Background(), in, incWS)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Solve(context.Background(), in, refWS)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("ratio=%g round %d: incremental reused-workspace solve diverges", ratio, round)
			}
			if !sameResult(got, inc) {
				t.Fatalf("ratio=%g round %d: reused-workspace solve diverges from fresh solve", ratio, round)
			}
		}
	}
}

// TestSolveAdvanceIncrementalMatchesDisabled slides one workspace across
// overlapping windows with Options.Advance (coefficient reuse + iterate
// carry) and checks the incremental machinery changes nothing under it:
// an ablated (DisableIncremental) workspace driven through the same
// Advance sequence produces bit-identical results at every window. It
// also checks an out-of-range Advance degrades to the full rebind —
// identical to an Advance = 0 run — rather than corrupting state.
func TestSolveAdvanceIncrementalMatchesDisabled(t *testing.T) {
	cfg := mediumInstance(t, func(c *workload.InstanceConfig) {
		c.T = 8
		c.OmegaSBSRatio = 0.25
	})
	full, err := workload.BuildInstance(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	const w = 5
	win := func(from int) *model.Instance {
		sub, err := full.Window(from, from+w, full.InitialPlan(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}

	run := func(disable bool) []*Result {
		opts := Options{MaxIter: 15, DisableIncremental: disable, Workspace: NewWorkspace()}
		var out []*Result
		for from := 0; from+w <= full.T; from++ {
			o := opts
			if from > 0 {
				o.Advance = 1
			}
			res, err := Solve(context.Background(), win(from), o)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	inc, ref := run(false), run(true)
	for i := range inc {
		if !sameResult(inc[i], ref[i]) {
			t.Fatalf("window %d: Advance run diverges between incremental and ablated loops", i)
		}
	}

	// An Advance larger than the previous horizon cannot describe any
	// overlap; the bind must fall back to a from-scratch rebind and match
	// the Advance = 0 result exactly.
	wsBad := Options{MaxIter: 15, Workspace: NewWorkspace()}
	if _, err := Solve(context.Background(), win(0), wsBad); err != nil {
		t.Fatal(err)
	}
	bad := wsBad
	bad.Advance = w + 3
	gotBad, err := Solve(context.Background(), win(1), bad)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(context.Background(), win(1), Options{MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(gotBad, plain) {
		t.Fatal("out-of-range Advance did not degrade to a full rebind")
	}
}
