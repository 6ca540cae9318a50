package core

import (
	"context"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// TestSolveIncrementalMatchesDisabled checks that a workspace reused
// across solves carries nothing into the next solve that could change
// it: every result from a reused workspace — trajectory, bounds,
// multipliers, iteration counts — is bit-identical to a fresh solve's.
// Enough iterations run that μ settles, so late iterations re-solve rows
// whose inputs no longer move.
func TestSolveIncrementalMatchesDisabled(t *testing.T) {
	for _, ratio := range []float64{0, 0.25} {
		cfg := mediumInstance(t, func(c *workload.InstanceConfig) { c.OmegaSBSRatio = ratio })
		in, err := workload.BuildInstance(*cfg)
		if err != nil {
			t.Fatal(err)
		}

		opts := Options{MaxIter: 25}
		fresh, err := solve(context.Background(), in, opts, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		if !caches(fresh.Trajectory) {
			t.Fatalf("ratio=%g: the solve caches nothing, so the comparisons below compare all-zero placements", ratio)
		}

		reused := new(workspace)
		for round := 0; round < 3; round++ {
			got, err := solve(context.Background(), in, opts, reused)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, fresh) {
				t.Fatalf("ratio=%g round %d: reused-workspace solve diverges from fresh solve", ratio, round)
			}
		}
	}
}

// TestSolveAdvanceIncrementalMatchesDisabled slides one workspace across
// overlapping windows, as a receding-horizon controller does, and checks
// that the reused workspace carries nothing across windows: every
// window's result is bit-identical to a solve on a fresh workspace.
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

	opts := Options{MaxIter: 15}
	reused := new(workspace)
	cached := false
	for from := 0; from+w <= full.T; from++ {
		res, err := solve(context.Background(), win(from), opts, reused)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve(context.Background(), win(from), opts, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(res, want) {
			t.Fatalf("window %d: reused-workspace solve diverges from a fresh-workspace solve", from)
		}
		cached = cached || caches(res.Trajectory)
	}
	if !cached {
		t.Fatal("no window caches anything, so the comparisons compared all-zero placements")
	}
}
