package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"edgecache/internal/audit"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/workload"
)

// chcShapedInstance is a 6-slot window of the serve-chc topology (2 SBSs
// × 8 classes, K 30, C 4, B 20) at the given β and workload seed. Its
// fresh solves return ergodic candidates at some seeds.
func chcShapedInstance(t *testing.T, beta float64, seed uint64) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T, cfg.N, cfg.K, cfg.ClassesPerSBS, cfg.CacheCap, cfg.Bandwidth = 6, 2, 30, 8, 4, 20
	cfg.Beta, cfg.Seed = beta, seed
	cfg.Workload.Jitter = 0.4
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// tracedSolve runs Solve with a span tracer installed and returns the
// result and the fields of its one solve span.
func tracedSolve(t *testing.T, in *model.Instance, opts Options) (*Result, obs.Fields) {
	t.Helper()
	tr := obs.NewTracer(nil)
	res, err := Solve(obs.WithTracer(context.Background(), tr), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	var fields []obs.Fields
	for _, r := range tr.Records() {
		if r.Name == "solve" {
			fields = append(fields, r.Fields)
		}
	}
	if len(fields) != 1 {
		t.Fatalf("%d solve spans, want 1", len(fields))
	}
	return res, fields[0]
}

// TestSolveReportsDualYield checks the dual-loop yield telemetry: the last
// improving iteration never exceeds the iteration count, every solve
// observes it into core.last_improving_iter and onto its solve span,
// core.ub_improved counts exactly the solves whose dual iterations beat
// the seeded upper bound, the solve span's ub_source names where the
// returned trajectory came from, and core.ub_ergodic (on /metrics too)
// counts exactly the solves that returned an ergodic candidate. At β = 3
// the tiny instance's first Lagrangian candidate beats the seed; at
// β = 0 the myopic seed is never beaten; on the serve-chc-shaped window
// the rounded running mean wins.
func TestSolveReportsDualYield(t *testing.T) {
	for _, tc := range []struct {
		name   string
		in     *model.Instance
		source string
	}{
		{"tiny β=3", tinyInstance(t, func(c *workload.InstanceConfig) { c.Beta = 3 }), ubLagrangian},
		{"tiny β=0", tinyInstance(t, func(c *workload.InstanceConfig) { c.Beta = 0 }), ubSeed},
		{"serve-chc window β=50 seed 7", chcShapedInstance(t, 50, 7), ubErgodic},
	} {
		improved, ergodic, hist := mUBImproved.Value(), mUBErgodic.Value(), mLastImprHist.Stats().Count
		res, span := tracedSolve(t, tc.in, Options{MaxIter: 30})
		if res.LastImprovingIter < 0 || res.LastImprovingIter > res.Iterations {
			t.Fatalf("%s: last improving iteration %d outside [0, %d]", tc.name, res.LastImprovingIter, res.Iterations)
		}
		if got := span["ub_source"]; got != tc.source {
			t.Fatalf("%s: solve span ub_source = %v, want %s", tc.name, got, tc.source)
		}
		if got, want := res.LastImprovingIter > 0, tc.source != ubSeed; got != want {
			t.Fatalf("%s: loop beat the seed = %v (last improving iteration %d), want %v",
				tc.name, got, res.LastImprovingIter, want)
		}
		wantImproved, wantErgodic := int64(0), int64(0)
		if tc.source != ubSeed {
			wantImproved = 1
		}
		if tc.source == ubErgodic {
			wantErgodic = 1
		}
		if d := mUBImproved.Value() - improved; d != wantImproved {
			t.Fatalf("%s: core.ub_improved moved by %d, want %d", tc.name, d, wantImproved)
		}
		if d := mUBErgodic.Value() - ergodic; d != wantErgodic {
			t.Fatalf("%s: core.ub_ergodic moved by %d, want %d", tc.name, d, wantErgodic)
		}
		if d := mLastImprHist.Stats().Count - hist; d != 1 {
			t.Fatalf("%s: core.last_improving_iter observed %d values, want 1", tc.name, d)
		}
		if span["last_improving_iter"] != res.LastImprovingIter {
			t.Fatalf("%s: solve span last_improving_iter = %v, want %d",
				tc.name, span["last_improving_iter"], res.LastImprovingIter)
		}
	}
	var prom bytes.Buffer
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nedgecache_core_ub_ergodic_total ") {
		t.Fatal("/metrics exposition lacks edgecache_core_ub_ergodic_total")
	}
}

// TestErgodicCandidateRespectsOverlay checks that the ergodic candidate
// is rounded under each slot's effective capacity C^t_n, not the P1
// planning floor or the base capacity: on serve-chc-shaped windows whose
// SBS 1 loses half its cache in slots 2–3, every solve's trajectory must
// pass the feasibility check and the auditor, and at least one of them
// must be an ergodic winner.
func TestErgodicCandidateRespectsOverlay(t *testing.T) {
	ergodic := 0
	for _, c := range []struct {
		beta float64
		seed uint64
	}{{30, 2}, {35, 25}, {40, 4}} {
		in := chcShapedInstance(t, c.beta, c.seed)
		caps := make([][]int, in.T)
		for tt := range caps {
			caps[tt] = []int{4, 4}
			if tt == 2 || tt == 3 {
				caps[tt][1] = 2
			}
		}
		in.Overlay = &model.Overlay{CacheCap: caps}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		res, span := tracedSolve(t, in, Options{MaxIter: 25})
		if span["ub_source"] == ubErgodic {
			ergodic++
		}
		if err := in.CheckTrajectory(res.Trajectory, model.DefaultTol); err != nil {
			t.Fatalf("β=%g seed %d (%v): %v", c.beta, c.seed, span["ub_source"], err)
		}
		if err := audit.Trajectory(in, res.Trajectory, &res.Cost, audit.Options{}).Err(); err != nil {
			t.Fatalf("β=%g seed %d (%v): %v", c.beta, c.seed, span["ub_source"], err)
		}
	}
	if ergodic == 0 {
		t.Fatal("no solve returned an ergodic candidate")
	}
}
