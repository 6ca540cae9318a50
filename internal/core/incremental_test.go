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
		fresh, err := Solve(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}

		reused := opts
		reused.Workspace = NewWorkspace()
		for round := 0; round < 3; round++ {
			got, err := Solve(context.Background(), in, reused)
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
// overlapping windows with Options.Advance (coefficient reuse + iterate
// carry) and checks the carried state is exactly the exported P2
// iterates: at every window, a fresh workspace restored (RestoreP2) from
// the previous window's exported iterates produces a bit-identical
// result. It also checks an out-of-range Advance degrades to the full
// rebind — identical to an Advance = 0 run — rather than corrupting
// state.
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

	opts := Options{MaxIter: 15, Workspace: NewWorkspace()}
	var iterates [][][]float64
	for from := 0; from+w <= full.T; from++ {
		o := opts
		if from > 0 {
			o.Advance = 1
		}
		res, err := Solve(context.Background(), win(from), o)
		if err != nil {
			t.Fatal(err)
		}
		if from > 0 {
			restored := Options{MaxIter: 15, Workspace: NewWorkspace(), Advance: 1}
			if err := restored.Workspace.RestoreP2(win(from-1), iterates[from-1]); err != nil {
				t.Fatal(err)
			}
			want, err := Solve(context.Background(), win(from), restored)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(res, want) {
				t.Fatalf("window %d: Advance run diverges from a workspace restored from its iterates", from)
			}
		}
		iterates = append(iterates, opts.Workspace.ExportP2Iterates())
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
