package core

import (
	"context"
	"testing"

	"edgecache/internal/obs"
	"edgecache/internal/workload"
)

// TestSolveReportsDualYield checks the dual-loop yield telemetry: the last
// improving iteration never exceeds the iteration count, every solve
// observes it into core.last_improving_iter and onto its solve span, and
// core.ub_improved counts exactly the solves whose dual iterations beat
// the seeded upper bound. At β = 3 the tiny instance's first iteration
// beats the seed; at β = 0 the myopic seed is never beaten.
func TestSolveReportsDualYield(t *testing.T) {
	for _, tc := range []struct {
		beta     float64
		improves bool
	}{{3, true}, {0, false}} {
		in := tinyInstance(t, func(c *workload.InstanceConfig) { c.Beta = tc.beta })
		tr := obs.NewTracer(nil)
		ctx := obs.WithTracer(context.Background(), tr)
		improved, hist := mUBImproved.Value(), mLastImprHist.Stats().Count
		res, err := Solve(ctx, in, Options{MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		if res.LastImprovingIter < 0 || res.LastImprovingIter > res.Iterations {
			t.Fatalf("β=%g: last improving iteration %d outside [0, %d]", tc.beta, res.LastImprovingIter, res.Iterations)
		}
		if got := res.LastImprovingIter > 0; got != tc.improves {
			t.Fatalf("β=%g: loop beat the seed = %v (last improving iteration %d), want %v",
				tc.beta, got, res.LastImprovingIter, tc.improves)
		}
		wantImproved := int64(0)
		if tc.improves {
			wantImproved = 1
		}
		if d := mUBImproved.Value() - improved; d != wantImproved {
			t.Fatalf("β=%g: core.ub_improved moved by %d, want %d", tc.beta, d, wantImproved)
		}
		if d := mLastImprHist.Stats().Count - hist; d != 1 {
			t.Fatalf("β=%g: core.last_improving_iter observed %d values, want 1", tc.beta, d)
		}
		var spans int
		for _, r := range tr.Records() {
			if r.Name != "solve" {
				continue
			}
			spans++
			if r.Fields["last_improving_iter"] != res.LastImprovingIter {
				t.Fatalf("β=%g: solve span last_improving_iter = %v, want %d",
					tc.beta, r.Fields["last_improving_iter"], res.LastImprovingIter)
			}
		}
		if spans != 1 {
			t.Fatalf("β=%g: %d solve spans, want 1", tc.beta, spans)
		}
	}
}
