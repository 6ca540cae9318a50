package online

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// drain closes every remaining slot of a stream and returns its result.
func drain(t *testing.T, s *Stream) *Result {
	t.Helper()
	ctx := context.Background()
	for !s.Done() {
		if _, err := s.CloseSlot(ctx); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamMatchesBatchRun pins the stream/batch equivalence contract:
// a Stream driven slot by slot over the completed demand tensor commits
// the exact trajectory (and counters) the batch controller computes —
// the identical window solves, merely interleaved differently with the
// commit stage. Solver faults must consume the same per-slot budgets
// either way. Off topology events each decision slot belongs to one
// version, but at an event slot every version replans at the same τ and
// the versions compete for that slot's budget: batch must hand it out
// lowest version first, as the Stream does. The batch side repeats, so a
// run-ahead whose budget order depends on scheduling fails here.
func TestStreamMatchesBatchRun(t *testing.T) {
	faulted := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Attempts: 3},
		fault.SolverFault{Slot: 7, Attempts: 1},
	}}
	// A solver fault on an outage's first slot, where all four AFHC
	// versions replan.
	eventFaulted := &fault.Schedule{Injectors: []fault.Injector{
		fault.Outage{SBS: 0, From: 5, To: 7},
		fault.SolverFault{Slot: 5, Attempts: 3},
	}}
	eventInstance := func(c *workload.InstanceConfig) { c.Seed, c.K, c.CacheCap = 9, 10, 3 }
	cases := []struct {
		name   string
		cfg    Config
		sched  *fault.Schedule
		mutate func(*workload.InstanceConfig)
	}{
		{"RHC", RHC(4), nil, nil},
		{"CHC", CHC(4, 2), nil, nil},
		{"FHC", FHC(4), nil, nil},
		{"RHC-faulted", RHC(4), faulted, nil},
		{"CHC-faulted", CHC(4, 2), faulted, nil},
		{"AFHC-event-faulted", AFHC(4), eventFaulted, eventInstance},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, pred := smallInstance(t, tc.mutate)
			if tc.sched != nil {
				// The overlay shares the demand tensor, so pred stays valid.
				var err error
				if in, err = tc.sched.Materialize(in, nil); err != nil {
					t.Fatal(err)
				}
			}
			cfg := tc.cfg
			cfg.Faults = tc.sched
			s, err := NewStream(context.Background(), in, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := drain(t, s)
			for rep := 0; rep < 20; rep++ {
				batch, err := Run(context.Background(), in, pred, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch.Trajectory, live.Trajectory) {
					t.Fatalf("batch run %d: stream trajectory diverges from batch run", rep)
				}
				if batch.RelaxedCost != live.RelaxedCost ||
					batch.WindowSolves != live.WindowSolves ||
					batch.DualIterations != live.DualIterations ||
					batch.Degraded != live.Degraded ||
					batch.Retries != live.Retries ||
					batch.Replans != live.Replans {
					t.Fatalf("batch run %d: stream counters diverge from batch: %+v vs %+v", rep, live, batch)
				}
			}
		})
	}
}

// TestStreamPublishesProvisionalPlans checks the slot-open surface: the
// published placement is integral and within capacity before the slot's
// demand is known, and the provisional split stays inside the unit box
// on cached items only.
func TestStreamPublishesProvisionalPlans(t *testing.T) {
	in, pred := smallInstance(t, nil)
	s, err := NewStream(context.Background(), in, pred, RHC(4))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		slot, x, y := s.Plan()
		if slot != s.Slot() {
			t.Fatalf("Plan reports slot %d, Slot() %d", slot, s.Slot())
		}
		if !x.IsIntegral(0) {
			t.Fatalf("slot %d: provisional placement fractional", slot)
		}
		for n := 0; n < in.N; n++ {
			if len(x.Items(n)) > in.CacheCap[n] {
				t.Fatalf("slot %d: provisional placement over capacity", slot)
			}
			for m := 0; m < in.Classes[n]; m++ {
				for k := 0; k < in.K; k++ {
					v := y[n][m][k]
					if v < 0 || v > 1 {
						t.Fatalf("slot %d: provisional split out of box: %g", slot, v)
					}
					if x[n][k] < 0.5 && v != 0 {
						t.Fatalf("slot %d: provisional split serves uncached item", slot)
					}
				}
			}
		}
		if _, err := s.CloseSlot(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CloseSlot(context.Background()); err == nil {
		t.Fatal("CloseSlot accepted a completed horizon")
	}
	if _, x, y := s.Plan(); x != nil || y != nil {
		t.Fatal("completed stream still publishes a plan")
	}
}

// TestRestartEquivalence is the differential restart test of the
// snapshot/restore contract: snapshot mid-horizon, serialise through
// JSON (the on-disk format), restore into a fresh Stream, and the
// restored run's full trajectory and counters must be DeepEqual to the
// uninterrupted run's — killed-and-restarted == unkilled. Runs across
// RHC and CHC, fault-free and under a fault schedule with one fault
// consumed before the snapshot and one injected after the restore.
func TestRestartEquivalence(t *testing.T) {
	faulted := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Attempts: 3}, // fully consumed pre-snapshot
		fault.SolverFault{Slot: 8, Attempts: 1}, // fires post-restore
	}}
	cases := []struct {
		name  string
		cfg   Config
		sched *fault.Schedule
	}{
		{"RHC", RHC(4), nil},
		{"CHC", CHC(4, 2), nil},
		{"RHC-faulted", RHC(4), faulted},
		{"CHC-faulted", CHC(4, 2), faulted},
	}
	const snapAt = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			in, pred := smallInstance(t, nil)
			cfg := tc.cfg
			cfg.Faults = tc.sched

			uninterrupted, err := NewStream(ctx, in, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := drain(t, uninterrupted)

			killed, err := NewStream(ctx, in, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for killed.Slot() < snapAt {
				if _, err := killed.CloseSlot(ctx); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := json.Marshal(killed.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var snap StreamSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			// The killed stream is abandoned here; the restored one must
			// carry on as if the kill never happened.
			restored, err := RestoreStream(ctx, in, pred, cfg, &snap)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Slot() != snapAt {
				t.Fatalf("restored stream opens slot %d, want %d", restored.Slot(), snapAt)
			}
			got := drain(t, restored)

			if !reflect.DeepEqual(want.Trajectory, got.Trajectory) {
				t.Fatal("restored trajectory diverges from the uninterrupted run")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restored result diverges: %+v vs %+v", got, want)
			}
		})
	}
}

// TestRestoreStreamRejectsMismatches checks the restore guards: a
// snapshot resumed under a different algorithm, horizon or version
// count fails loudly instead of silently mis-continuing.
func TestRestoreStreamRejectsMismatches(t *testing.T) {
	ctx := context.Background()
	in, pred := smallInstance(t, nil)
	s, err := NewStream(ctx, in, pred, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for s.Slot() < 3 {
		if _, err := s.CloseSlot(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if _, err := RestoreStream(ctx, in, pred, RHC(4), snap); err == nil {
		t.Error("restore accepted a different algorithm")
	}
	if _, err := RestoreStream(ctx, in, pred, CHC(4, 2), nil); err == nil {
		t.Error("restore accepted a nil snapshot")
	}
	bad := *snap
	bad.Slot = in.T + 1
	if _, err := RestoreStream(ctx, in, pred, CHC(4, 2), &bad); err == nil {
		t.Error("restore accepted an out-of-range slot")
	}
	bad = *snap
	bad.Versions = bad.Versions[:1]
	if _, err := RestoreStream(ctx, in, pred, CHC(4, 2), &bad); err == nil {
		t.Error("restore accepted a version-count mismatch")
	}
}

// TestCloseSlotDropsClosedActions pins what a snapshot carries: after
// every CloseSlot no version holds an action below the open slot, and
// every version holds one for the open slot.
func TestCloseSlotDropsClosedActions(t *testing.T) {
	ctx := context.Background()
	in, pred := smallInstance(t, nil)
	s, err := NewStream(ctx, in, pred, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if _, err := s.CloseSlot(ctx); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		for _, vs := range snap.Versions {
			for t0 := 0; t0 < snap.Slot; t0++ {
				if vs.XA[t0] != nil || vs.YA[t0] != nil {
					t.Fatalf("open slot %d: version %d still carries the action of closed slot %d", snap.Slot, vs.Version, t0)
				}
			}
			if snap.Slot < in.T && (vs.XA[snap.Slot] == nil || vs.YA[snap.Slot] == nil) {
				t.Fatalf("open slot %d: version %d carries no action for it", snap.Slot, vs.Version)
			}
		}
	}
}

// TestRestoreDropsClosedActions restores from a snapshot that still
// carries the actions of closed slots, as generations written before
// CloseSlot dropped them do: the restored stream must snapshot equal to
// the unkilled one and finish identical to it.
func TestRestoreDropsClosedActions(t *testing.T) {
	ctx := context.Background()
	in, pred := smallInstance(t, nil)
	cfg := CHC(4, 2)
	const snapAt = 5

	unkilled, err := NewStream(ctx, in, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each slot's actions as published while it was open.
	openXA := make([][]model.CachePlan, in.T)
	openYA := make([][]model.LoadPlan, in.T)
	for unkilled.Slot() < snapAt {
		t0 := unkilled.Slot()
		for _, vs := range unkilled.Snapshot().Versions {
			openXA[t0] = append(openXA[t0], vs.XA[t0])
			openYA[t0] = append(openYA[t0], vs.YA[t0])
		}
		if _, err := unkilled.CloseSlot(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want := unkilled.Snapshot()

	old := unkilled.Snapshot()
	for v := range old.Versions {
		for t0 := 0; t0 < snapAt; t0++ {
			old.Versions[v].XA[t0] = openXA[t0][v]
			old.Versions[v].YA[t0] = openYA[t0][v]
		}
	}
	restored, err := RestoreStream(ctx, in, pred, cfg, old)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Fatal("stream restored from a snapshot with closed-slot actions snapshots differently from the unkilled stream")
	}
	if !reflect.DeepEqual(drain(t, unkilled), drain(t, restored)) {
		t.Fatal("restored result diverges from the unkilled run")
	}
}

// TestStreamWithOnlineEstimator runs the oracle-free live-deployment
// mode end to end: rows are revealed slot by slot into a progressively
// filled tensor, the estimator forecasts from the realised prefix only,
// and the committed trajectory must match a batch run over the final
// tensor with the same estimator — the serving layer's golden-replay
// property.
func TestStreamWithOnlineEstimator(t *testing.T) {
	in, _ := smallInstance(t, nil)

	// The live tensor starts empty and receives each slot's realised row
	// as the slot closes (copied from the reference instance's tensor).
	live := model.NewDemand(in.T, in.Classes, in.K)
	liveIn := *in
	liveIn.Demand = live
	reveal := func(t int) {
		for n := 0; n < in.N; n++ {
			in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
				live.Set(t, n, m, k, rate)
			})
		}
	}

	est, err := workload.NewOnlineEstimator(live, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(context.Background(), &liveIn, est, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		reveal(s.Slot())
		if _, err := s.CloseSlot(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Batch replay over the completed tensor with a fresh estimator.
	est2, err := workload.NewOnlineEstimator(live, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Run(context.Background(), &liveIn, est2, CHC(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Trajectory, res.Trajectory) {
		t.Fatal("estimator-driven stream diverges from batch replay over the realised tensor")
	}
}
