package core

import (
	"context"
	"reflect"
	"testing"

	"edgecache/internal/workload"
)

// mediumInstance is a two-SBS, five-slot paper instance at a replacement
// cost and bandwidth (β = 3, B = 6) low enough that its solved
// trajectories cache items, so a comparison of two of them also compares
// non-zero placements.
func mediumInstance(t *testing.T, mutate func(*workload.InstanceConfig)) *workload.InstanceConfig {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 5
	cfg.K = 8
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Beta, cfg.Bandwidth = 3, 6
	if mutate != nil {
		mutate(&cfg)
	}
	return &cfg
}

// solveResults compares every deterministic field of two solver results.
func sameResult(a, b *Result) bool {
	return a.LowerBound == b.LowerBound &&
		a.Gap == b.Gap &&
		a.Iterations == b.Iterations &&
		a.LastImprovingIter == b.LastImprovingIter &&
		a.Converged == b.Converged &&
		a.Cost == b.Cost &&
		reflect.DeepEqual(a.Trajectory, b.Trajectory) &&
		reflect.DeepEqual(a.Mu, b.Mu)
}

// TestSolveDeterministicAcrossWorkspaceReuse is the determinism guarantee
// of the zero-reallocation refactor: Solve on its pooled workspace, solve
// on a fresh workspace, and solve on a workspace already dirtied by other
// solves must all produce byte-identical results.
func TestSolveDeterministicAcrossWorkspaceReuse(t *testing.T) {
	for _, ratio := range []float64{0, 0.25} {
		cfg := mediumInstance(t, func(c *workload.InstanceConfig) { c.OmegaSBSRatio = ratio })
		in, err := workload.BuildInstance(*cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Different shape to dirty the reused workspace before the real solve.
		cfgOther := mediumInstance(t, func(c *workload.InstanceConfig) {
			c.OmegaSBSRatio = ratio
			c.T = 3
			c.K = 11
			c.Seed = 999
		})
		other, err := workload.BuildInstance(*cfgOther)
		if err != nil {
			t.Fatal(err)
		}

		opts := Options{MaxIter: 12}
		base, err := Solve(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !caches(base.Trajectory) {
			t.Fatalf("ratio=%g: the solve caches nothing, so the comparisons below compare all-zero placements", ratio)
		}

		got, err := solve(context.Background(), in, opts, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(base, got) {
			t.Fatalf("ratio=%g: fresh-workspace solve diverges from pooled Solve", ratio)
		}

		reused := new(workspace)
		if _, err := solve(context.Background(), other, opts, reused); err != nil {
			t.Fatal(err)
		}
		got, err = solve(context.Background(), in, opts, reused)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(base, got) {
			t.Fatalf("ratio=%g: dirty-workspace solve diverges from pooled Solve", ratio)
		}

		// Same workspace, same instance, back to back.
		got, err = solve(context.Background(), in, opts, reused)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(base, got) {
			t.Fatalf("ratio=%g: repeated reused-workspace solve diverges", ratio)
		}
	}
}
