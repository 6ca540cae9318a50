package online

import (
	"context"
	"testing"

	"edgecache/internal/fault"
	"edgecache/internal/model"
)

// TestWorkspaceSeamSurvivesFullyFaultedWindow pins the μ warm-start
// seam across a window whose every solve attempt is consumed by injected
// faults: the window degrades to the fallback, which has no multipliers,
// so the μ carry must drop rather than shift a stale block onto the next
// window, and the next solved window must re-anchor the carry at its own
// slots.
func TestWorkspaceSeamSurvivesFullyFaultedWindow(t *testing.T) {
	in, pred := smallInstance(t, nil)
	cfg, err := RHC(4).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Retry.Max defaults to 2, so attempts = 3 consumes every attempt of
	// the window at τ = 2 and the window degrades to the fallback.
	sched := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Attempts: 3},
	}}
	xa := make([]model.CachePlan, in.T)
	ya := make([]model.LoadPlan, in.T)
	vs := newVersionState(in, pred, cfg, 0, sched.Arm(), in.EventSlots(), xa, ya)
	ctx := context.Background()

	// τ = 0 and τ = 1 solve normally: the μ carry follows the windows.
	for want := 0; want <= 1; want++ {
		if err := vs.step(ctx); err != nil {
			t.Fatal(err)
		}
		if vs.warmMu == nil || vs.muFrom != want {
			t.Fatalf("after τ=%d: muFrom=%d (warmMu nil: %v), want %d", want, vs.muFrom, vs.warmMu == nil, want)
		}
	}

	// τ = 2: all attempts injected, degradation commits the fallback and
	// the μ carry drops.
	if err := vs.step(ctx); err != nil {
		t.Fatal(err)
	}
	if vs.stats.Degraded != 1 || vs.stats.Retries != 2 {
		t.Fatalf("faulted window: stats = %+v, want 1 degraded / 2 retries", vs.stats)
	}
	if vs.warmMu != nil {
		t.Fatal("fallback window kept a stale μ carry")
	}
	if vs.xa[2] == nil || vs.ya[2] == nil {
		t.Fatal("faulted window committed nothing")
	}

	// τ = 3 solves normally again and re-anchors the carry at 3.
	if err := vs.step(ctx); err != nil {
		t.Fatal(err)
	}
	if vs.warmMu == nil || vs.muFrom != 3 {
		t.Fatalf("recovered window: muFrom=%d (warmMu nil: %v), want 3", vs.muFrom, vs.warmMu == nil)
	}
	if vs.stats.Degraded != 1 || vs.stats.Solves != 4 {
		t.Fatalf("recovered window: stats = %+v, want 1 degraded / 4 solves", vs.stats)
	}
}

// TestWorkspaceSeamSurvivesInjectedPanics is the panic twin: injected
// worker panics are routed through the parallel supervisor and surface
// as errors, so a window whose every attempt panics is retried, degrades
// to the fallback and drops the μ carry, and the next window solves and
// re-anchors it.
func TestWorkspaceSeamSurvivesInjectedPanics(t *testing.T) {
	in, pred := smallInstance(t, nil)
	cfg, err := RHC(4).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Panic: true, Attempts: 3},
	}}
	xa := make([]model.CachePlan, in.T)
	ya := make([]model.LoadPlan, in.T)
	vs := newVersionState(in, pred, cfg, 0, sched.Arm(), in.EventSlots(), xa, ya)
	ctx := context.Background()
	for tau := 0; tau <= 2; tau++ {
		if err := vs.step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if vs.stats.Degraded != 1 || vs.stats.Retries != 2 {
		t.Fatalf("panicked window: stats = %+v, want 1 degraded / 2 retries", vs.stats)
	}
	if vs.warmMu != nil {
		t.Fatal("panicked window kept a stale μ carry")
	}
	if err := vs.step(ctx); err != nil {
		t.Fatal(err)
	}
	if vs.warmMu == nil || vs.muFrom != 3 {
		t.Fatalf("recovered window: muFrom=%d (warmMu nil: %v), want 3", vs.muFrom, vs.warmMu == nil)
	}
}

// TestShiftMuTailWindows pins shiftMu at the horizon tail, where windows
// shrink (to − from < w): the overlap must stay aligned to absolute
// slots with no stale trailing planes.
func TestShiftMuTailWindows(t *testing.T) {
	in, _ := smallInstance(t, nil) // T = 12
	tag := func(from, to int) [][][]float64 {
		mu := make([][][]float64, to-from)
		for i := range mu {
			mu[i] = make([][]float64, in.N)
			for n := range mu[i] {
				mu[i][n] = make([]float64, in.Classes[n]*in.K)
				mu[i][n][0] = float64(from + i)
			}
		}
		return mu
	}
	// Shrinking tail: previous window [8, 12), next [9, 12) — 3 slots,
	// all overlapping; nothing new enters.
	out := shiftMu(tag(8, 12), 8, 12, 9, 12, in)
	if len(out) != 3 {
		t.Fatalf("tail window has %d slots, want 3", len(out))
	}
	for i := 0; i < 3; i++ {
		if got, want := out[i][0][0], float64(9+i); got != want {
			t.Fatalf("tail slot %d carries µ from absolute slot %g, want %g", i, got, want)
		}
	}
	// Degenerate tail: previous [10, 12), next [11, 12) — one slot.
	out = shiftMu(tag(10, 12), 10, 12, 11, 12, in)
	if len(out) != 1 || out[0][0][0] != 11 {
		t.Fatalf("single-slot tail misaligned: %v", out[0][0][:1])
	}
}
