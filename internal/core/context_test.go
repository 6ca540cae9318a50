package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"edgecache/internal/obs"
)

// cancelOnSink cancels a context as soon as an event of the given type is
// emitted — the deterministic way to interrupt a solve mid-flight.
type cancelOnSink struct {
	on     string
	cancel context.CancelFunc

	mu     sync.Mutex
	events []obs.Event
}

func (s *cancelOnSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
	if e.Type == s.on {
		s.cancel()
	}
}

func (s *cancelOnSink) count(typ string) int {
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

func TestSolveCancelledBeforeStart(t *testing.T) {
	in := tinyInstance(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, in, Options{MaxIter: 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got partial result %+v before any iteration ran", res)
	}
}

// TestSolveCancelMidIteration interrupts the dual ascent after exactly one
// iteration (via a telemetry sink that cancels on the first
// solver_iteration event) and checks both halves of the contract: the
// error wraps context.Canceled, and the partial result carries the
// feasible best-so-far trajectory of the completed iteration.
func TestSolveCancelMidIteration(t *testing.T) {
	in := tinyInstance(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnSink{on: "solver_iteration", cancel: cancel}
	res, err := Solve(ctx, in, Options{MaxIter: 50, StallIter: -1, Telemetry: obs.New(sink, obs.NewRegistry())})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := sink.count("solver_iteration"); got != 1 {
		t.Fatalf("solver ran %d iterations after cancellation, want 1", got)
	}
	if res == nil {
		t.Fatal("no partial result despite a completed iteration")
	}
	if err := in.CheckTrajectory(res.Trajectory, 1e-6); err != nil {
		t.Fatalf("partial trajectory infeasible: %v", err)
	}
	if math.IsInf(res.Gap, 1) {
		t.Fatalf("gap still +Inf after a completed iteration: %+v", res)
	}
}

// TestSolveDistributedCancelled checks the distributed (per-SBS sharded)
// solve surfaces a cancelled context as a wrapped context.Canceled.
func TestSolveDistributedCancelled(t *testing.T) {
	in := tinyInstance(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveSharded(ctx, in, Options{MaxIter: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
