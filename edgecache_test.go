package edgecache

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func smallScenario() *Scenario {
	return PaperScenario().
		WithHorizon(8).
		WithCatalogue(6).
		WithCache(2).
		WithBandwidth(6).
		WithBeta(5).
		WithSeed(3)
}

func TestScenarioBuild(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.T != 8 || in.K != 6 || in.CacheCap[0] != 2 {
		t.Fatalf("scenario dims not applied: T=%d K=%d C=%d", in.T, in.K, in.CacheCap[0])
	}
	if pred.Eta() != 0.1 {
		t.Fatalf("eta = %g, want paper default 0.1", pred.Eta())
	}
}

func TestScenarioBuilderChaining(t *testing.T) {
	in, pred, err := NewScenario(2, 5, 3, 4).
		WithJitter(0.2).
		WithDrift(2).
		WithZipf(1.0, 5).
		WithDensity(2).
		WithSBSWeightRatio(0.01).
		WithNoise(0.3).
		WithSeed(11).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.N != 2 || in.K != 5 || in.Classes[0] != 3 || in.T != 4 {
		t.Fatal("principal dimensions not applied")
	}
	if in.OmegaSBS[0][0] != 0.01*in.OmegaBS[0][0] {
		t.Fatal("SBS weight ratio not applied")
	}
	if pred.Eta() != 0.3 {
		t.Fatal("noise not applied")
	}
}

func TestScenarioBuildRejectsInvalid(t *testing.T) {
	if _, _, err := PaperScenario().WithHorizon(0).Build(); err == nil {
		t.Fatal("accepted zero horizon")
	}
	if _, _, err := PaperScenario().WithNoise(1.5).Build(); err == nil {
		t.Fatal("accepted noise ≥ 1")
	}
}

func TestSimulateAndCompare(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Compare(context.Background(), in, pred, []Planner{
		Offline(),
		RHC(4),
		CHC(4, 2),
		AFHC(4),
		LRFU(),
		LFU(),
		EMACache(0.5),
		StaticTop(),
		NoCaching(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 9 {
		t.Fatalf("got %d runs", len(runs))
	}
	byName := map[string]*Run{}
	for _, r := range runs {
		byName[r.Policy] = r
	}
	if byName["Offline"] == nil || byName["LRFU"] == nil || byName["NoCaching"] == nil {
		t.Fatalf("missing expected policies: %v", names(runs))
	}
	null := byName["NoCaching"].Cost.Total
	for _, r := range runs {
		if r.Cost.Total > null*1.001 {
			t.Errorf("%s cost %g exceeds no-caching %g", r.Policy, r.Cost.Total, null)
		}
	}
	// Offline dominates everything (same objective, full information).
	off := byName["Offline"].Cost.Total
	for _, r := range runs {
		if off > r.Cost.Total*1.02+1e-9 {
			t.Errorf("offline %g worse than %s %g", off, r.Policy, r.Cost.Total)
		}
	}
}

func names(runs []*Run) []string {
	out := make([]string, len(runs))
	for i, r := range runs {
		out[i] = r.Policy
	}
	return out
}

func TestWithExternalDemand(t *testing.T) {
	// Export a scenario's demand, reload it, and rebuild on it.
	in, _, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDemandCSV(&buf, in.Demand); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDemandCSV(&buf, in.T, in.Classes, in.K)
	if err != nil {
		t.Fatal(err)
	}
	in2, _, err := smallScenario().WithDemand(d).Build()
	if err != nil {
		t.Fatal(err)
	}
	if in2.Demand.At(2, 0, 1, 3) != in.Demand.At(2, 0, 1, 3) {
		t.Fatal("external demand not used")
	}
	// Shape mismatch must be rejected.
	if _, _, err := smallScenario().WithHorizon(3).WithDemand(d).Build(); err == nil {
		t.Fatal("accepted mismatched external demand")
	}
}

func TestClassicPlanners(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Compare(context.Background(), in, pred, []Planner{
		ClassicLRU(1),
		ClassicFIFO(1),
		ClassicLFU(1),
		ClassicLRFU(0.1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"LRU", "FIFO", "LFU", "LRFU(λ=0.1)"}
	for i, r := range runs {
		if r.Policy != wantNames[i] {
			t.Errorf("run %d named %q, want %q", i, r.Policy, wantNames[i])
		}
		if r.Cost.Total <= 0 {
			t.Errorf("%s: non-positive cost", r.Policy)
		}
	}
}

func TestSimulateSinglePlanner(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(context.Background(), in, pred, RHC(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.PerSlot) != in.T {
		t.Fatalf("per-slot series has %d entries", len(run.PerSlot))
	}
	if len(run.Trajectory) != in.T {
		t.Fatalf("trajectory has %d slots", len(run.Trajectory))
	}
	recomputed := in.TotalCost(run.Trajectory)
	if math.Abs(recomputed.Total-run.Cost.Total) > 1e-9 {
		t.Fatalf("reported cost %g does not match trajectory %g", run.Cost.Total, recomputed.Total)
	}
}

// memSink collects events for assertions; safe for concurrent emitters.
type memSink struct {
	mu     sync.Mutex
	events []TelemetryEvent
}

func (s *memSink) Emit(e TelemetryEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *memSink) count(typ string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func TestCancelledCompareReturnsContextError(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compare(ctx, in, pred, []Planner{Offline(), RHC(3)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if _, err := Simulate(ctx, in, pred, LRFU()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

// TestSlotBudgetDegradesButStaysFeasible is the headline acceptance
// check: an impossibly small per-slot budget must not fail the run — the
// controller degrades window by window, the committed trajectory stays
// feasible (the harness re-verifies it), and telemetry announces every
// degradation.
func TestSlotBudgetDegradesButStaysFeasible(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	for _, p := range []Planner{RHC(3), Offline()} {
		run, err := Simulate(context.Background(), in, pred, p,
			WithTelemetry(NewTelemetry(sink)), WithSlotBudget(time.Nanosecond))
		if err != nil {
			t.Fatalf("%T: budgeted run failed instead of degrading: %v", p, err)
		}
		recomputed := in.TotalCost(run.Trajectory)
		if math.Abs(recomputed.Total-run.Cost.Total) > 1e-9 {
			t.Fatalf("degraded run cost %g does not match its trajectory %g", run.Cost.Total, recomputed.Total)
		}
	}
	if sink.count("solve_degraded") == 0 {
		t.Fatal("no solve_degraded events under a 1ns budget")
	}
}

func TestWithFallbackPlannerIsUsed(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(context.Background(), in, pred, Offline(),
		WithSlotBudget(time.Nanosecond), WithFallback(NoCaching()))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < in.T; slot++ {
		for k := 0; k < in.K; k++ {
			if run.Trajectory[slot].X[0][k] != 0 {
				t.Fatalf("slot %d caches content %d; NoCaching fallback was not committed", slot, k)
			}
		}
	}
}

func TestOfflineSolverOptions(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Simulate(context.Background(), in, pred,
		Offline(MaxIterations(2), Tolerance(1e-2), StepAlpha(0.2)))
	if err != nil {
		t.Fatal(err)
	}
	deflt, err := Simulate(context.Background(), in, pred, Offline())
	if err != nil {
		t.Fatal(err)
	}
	// Two dual iterations cannot beat the fully converged solve; both
	// must still be feasible (verified by the harness) and costed.
	if tuned.Cost.Total < deflt.Cost.Total-1e-9 {
		t.Fatalf("2-iteration solve %g beat the converged solve %g", tuned.Cost.Total, deflt.Cost.Total)
	}
}

// TestWithTelemetryRecordsSimulateAndCompare checks the telemetry option
// reaches both entry points: runs complete and emit run summaries.
func TestWithTelemetryRecordsSimulateAndCompare(t *testing.T) {
	in, pred, err := smallScenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	tel := WithTelemetry(NewTelemetry(sink))
	run, err := Simulate(context.Background(), in, pred, LRFU(), tel)
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "LRFU" {
		t.Fatalf("policy = %q", run.Policy)
	}
	if sink.count("run_summary") != 1 {
		t.Fatalf("Simulate emitted %d run summaries, want 1", sink.count("run_summary"))
	}
	runs, err := Compare(context.Background(), in, pred, []Planner{LRFU(), NoCaching()}, tel)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs", len(runs))
	}
	if sink.count("run_summary") != 3 {
		t.Fatalf("Simulate + Compare emitted %d run summaries, want 3", sink.count("run_summary"))
	}
}
