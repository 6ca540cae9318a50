package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

func testSetup(t *testing.T) (*model.Instance, *workload.Predictor) {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 8
	cfg.K = 6
	cfg.ClassesPerSBS = 4
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 5
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := workload.NewPredictor(in.Demand, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in, pred
}

func TestRunBaseline(t *testing.T) {
	in, pred := testSetup(t)
	res, err := RunWith(context.Background(), in, pred, FromBaseline(baseline.NewLRFU()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "LRFU" {
		t.Fatalf("Policy = %q", res.Policy)
	}
	if len(res.PerSlot) != in.T {
		t.Fatalf("PerSlot has %d entries, want %d", len(res.PerSlot), in.T)
	}
	var bs, repl float64
	var count int
	for _, m := range res.PerSlot {
		bs += m.BS
		repl += m.Replacement
		count += m.Replacements
		if m.CacheUtilization < 0 || m.CacheUtilization > 1 {
			t.Fatalf("CacheUtilization = %g", m.CacheUtilization)
		}
		if m.OffloadFraction < 0 || m.OffloadFraction > 1+1e-9 {
			t.Fatalf("OffloadFraction = %g", m.OffloadFraction)
		}
	}
	if math.Abs(bs-res.Cost.BS) > 1e-9 || math.Abs(repl-res.Cost.Replacement) > 1e-9 {
		t.Fatal("per-slot series do not sum to the breakdown")
	}
	if count != res.Cost.Replacements {
		t.Fatalf("per-slot replacements %d != total %d", count, res.Cost.Replacements)
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime recorded")
	}
}

func TestRunOfflineAndOnline(t *testing.T) {
	in, pred := testSetup(t)
	off, err := RunWith(context.Background(), in, pred, Offline(core.Options{MaxIter: 20}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunWith(context.Background(), in, pred, Online(online.RHC(4)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Policy != "Offline" || on.Policy != "RHC(w=4)" {
		t.Fatalf("names: %q, %q", off.Policy, on.Policy)
	}
	// The offline solver knows everything; it should not lose to the
	// noisy-prediction controller by much (allow solver slack).
	if off.Cost.Total > on.Cost.Total*1.1+1e-9 {
		t.Fatalf("offline %g much worse than RHC %g", off.Cost.Total, on.Cost.Total)
	}
}

// TestRunDeterministic is the regression guard for reproducibility: two
// runs from the same seed must produce byte-identical trajectories and
// cost breakdowns, and attaching telemetry must not perturb either — the
// instrumentation is observational only.
func TestRunDeterministic(t *testing.T) {
	marshal := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"Offline", func() Policy { return Offline(core.Options{MaxIter: 20}) }},
		{"RHC", func() Policy { return Online(online.RHC(4)) }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			// Rebuild the instance and predictor from scratch each time so
			// the comparison covers workload generation too.
			run := func(tel *obs.Telemetry) *Result {
				in, pred := testSetup(t)
				res, err := RunWith(context.Background(), in, pred, pc.mk(), Config{Telemetry: tel})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(nil), run(nil)
			if !bytes.Equal(marshal(a.Trajectory), marshal(b.Trajectory)) {
				t.Fatal("same seed produced different trajectories")
			}
			if a.Cost != b.Cost {
				t.Fatalf("same seed produced different costs: %+v vs %+v", a.Cost, b.Cost)
			}

			var col obs.Collector
			c := run(obs.New(&col, nil))
			if !bytes.Equal(marshal(a.Trajectory), marshal(c.Trajectory)) {
				t.Fatal("telemetry perturbed the trajectory")
			}
			if a.Cost != c.Cost {
				t.Fatalf("telemetry perturbed the cost: %+v vs %+v", a.Cost, c.Cost)
			}
			if len(col.ByType("run_summary")) != 1 {
				t.Fatalf("observed run emitted %d run_summary events, want 1", len(col.ByType("run_summary")))
			}

			// Span tracing is observational too: a traced run (spans plus
			// curve capture) must commit the identical trajectory.
			tracer := obs.NewTracer(nil)
			in, pred := testSetup(t)
			d, err := RunWith(obs.WithTracer(context.Background(), tracer),
				in, pred, pc.mk(), Config{Curves: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(a.Trajectory), marshal(d.Trajectory)) {
				t.Fatal("span tracing perturbed the trajectory")
			}
			if a.Cost != d.Cost {
				t.Fatalf("span tracing perturbed the cost: %+v vs %+v", a.Cost, d.Cost)
			}
			recs := tracer.Records()
			if len(recs) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			names := map[string]bool{}
			for _, r := range recs {
				names[r.Name] = true
			}
			for _, want := range []string{"run", "solve", "dual_batch", "caching", "loadbalance", "recover"} {
				if !names[want] {
					t.Fatalf("trace missing %q spans (got %v)", want, names)
				}
			}
			if d.Curve == nil || len(d.Curve.CumCost) != in.T {
				t.Fatalf("curve capture missing or wrong length: %+v", d.Curve)
			}
			if len(d.Curve.Gap) == 0 {
				t.Fatal("curve capture recorded no gap points")
			}
		})
	}
}

func TestOnlineRequiresPredictor(t *testing.T) {
	in, _ := testSetup(t)
	if _, err := RunWith(context.Background(), in, nil, Online(online.RHC(4)), Config{}); err == nil {
		t.Fatal("online policy ran without predictor")
	}
}

func TestRunValidatesInstance(t *testing.T) {
	in, pred := testSetup(t)
	in.T = 0
	if _, err := RunWith(context.Background(), in, pred, FromBaseline(baseline.NoCaching{}), Config{}); err == nil {
		t.Fatal("Run accepted invalid instance")
	}
}

func TestEvaluateRejectsInfeasible(t *testing.T) {
	in, _ := testSetup(t)
	traj := model.NewTrajectory(in)
	traj[0].Y[0][0][0] = 1 // serve uncached content
	if _, _, err := Evaluate(in, traj); err == nil {
		t.Fatal("Evaluate accepted infeasible trajectory")
	}
}

// fractionalPolicy commits a trajectory that is feasible in the relaxed
// sense but violates the integrality invariant the auditor enforces.
type fractionalPolicy struct{}

func (fractionalPolicy) Name() string { return "Fractional" }

func (fractionalPolicy) Plan(_ context.Context, in *model.Instance, _ workload.Forecaster) (model.Trajectory, error) {
	traj := model.NewTrajectory(in)
	for t := range traj {
		traj[t].X[0][0] = 0.5 // within capacity, but not integral
	}
	return traj, nil
}

func TestRunWithAuditCleanRun(t *testing.T) {
	in, pred := testSetup(t)
	var col obs.Collector
	tel := obs.New(&col, obs.NewRegistry())
	res, err := RunWith(context.Background(), in, pred, Online(online.RHC(4)), Config{Audit: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil {
		t.Fatal("Audit report missing despite Config.Audit")
	}
	if !res.Audit.OK() {
		t.Fatalf("clean run flagged: %v", res.Audit.Err())
	}
	if len(col.ByType("audit_violation")) != 0 {
		t.Fatal("clean run emitted audit_violation events")
	}
	summaries := col.ByType("run_summary")
	if len(summaries) != 1 {
		t.Fatalf("%d run_summary events", len(summaries))
	}
	if got := summaries[0].Fields["audit_violations"]; got != 0 {
		t.Fatalf("run_summary audit_violations = %v, want 0", got)
	}
	if _, ok := summaries[0].Fields["audit_ms"]; !ok {
		t.Fatal("run_summary misses audit_ms")
	}

	// Without the flag the report must be absent and the summary unadorned.
	res2, err := RunWith(context.Background(), in, pred, Online(online.RHC(4)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Audit != nil {
		t.Fatal("Audit report attached without Config.Audit")
	}
}

// TestRunWithAuditIsObservational: a violating run still returns its
// result — the auditor reports, it does not veto — and the violations are
// published through telemetry.
func TestRunWithAuditIsObservational(t *testing.T) {
	in, pred := testSetup(t)
	var col obs.Collector
	reg := obs.NewRegistry()
	tel := obs.New(&col, reg)
	res, err := RunWith(context.Background(), in, pred, fractionalPolicy{}, Config{Audit: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil || res.Audit.OK() {
		t.Fatal("fractional trajectory passed the audit")
	}
	if len(col.ByType("audit_violation")) == 0 {
		t.Fatal("violations not published as events")
	}
	if got := reg.Counter("audit.violations").Value(); got != int64(len(res.Audit.Violations)) {
		t.Fatalf("audit.violations = %d for %d violations", got, len(res.Audit.Violations))
	}
	if got := col.ByType("run_summary")[0].Fields["audit_violations"]; got != len(res.Audit.Violations) {
		t.Fatalf("run_summary audit_violations = %v, want %d", got, len(res.Audit.Violations))
	}
}
