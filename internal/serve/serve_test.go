package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

// testInstance builds the small deterministic topology the online-layer
// tests use; its synthetic demand tensor seeds the request trace only —
// the controller under test never sees it.
func testInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 12
	cfg.K = 6
	cfg.ClassesPerSBS = 4
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 5
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ingestSlot books slot t of the trace into the controller, one batch
// per SBS, and returns the number of requests booked.
func ingestSlot(t *testing.T, c *Controller, tr *trace.Trace, slot int) int {
	t.Helper()
	total := 0
	for n := 0; n < tr.N(); n++ {
		reqs := tr.Slot(slot, n)
		batch := make([]Request, len(reqs))
		for i, r := range reqs {
			batch[i] = Request{SBS: r.SBS, Class: r.Class, Content: r.Content}
		}
		if len(batch) == 0 {
			continue
		}
		got, err := c.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got != slot {
			t.Fatalf("ingest booked under slot %d, want %d", got, slot)
		}
		total += len(batch)
	}
	return total
}

// driveToCompletion ingests and ticks every remaining slot.
func driveToCompletion(t *testing.T, c *Controller, tr *trace.Trace) {
	t.Helper()
	ctx := context.Background()
	for !c.Done() {
		slot := c.Stats().Slot
		ingestSlot(t, c, tr, slot)
		if _, err := c.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestControllerGoldenReplay pins the serving layer's golden-replay
// property: a controller fed discrete requests slot by slot through
// Ingest/Tick commits the exact trajectory of a batch online.Run over
// the trace's empirical rate tensor with a fresh estimator — the HTTP
// shell adds no decision-relevant state of its own.
func TestControllerGoldenReplay(t *testing.T) {
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 7)
	cfg := Config{Online: online.CHC(4, 2), EstimatorFloor: -1}

	c, err := New(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Plan(); got.Slot != 0 || got.X == nil {
		t.Fatalf("fresh controller publishes no slot-0 plan: %+v", got)
	}
	driveToCompletion(t, c, tr)
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}

	empirical := tr.EmpiricalDemand()
	goldenIn := *base
	goldenIn.Demand = empirical
	est, err := workload.NewOnlineEstimator(empirical, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := online.Run(context.Background(), &goldenIn, est, cfg.Online)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(golden.Trajectory, res.Trajectory) {
		t.Fatal("controller trajectory diverges from the batch replay over the empirical tensor")
	}
	if !reflect.DeepEqual(golden, res) {
		t.Fatalf("controller result diverges from batch replay: %+v vs %+v", res, golden)
	}
	if got := c.Stats().Ingested; got != int64(tr.Len()) {
		t.Fatalf("controller ingested %d requests, trace has %d", got, tr.Len())
	}
}

// TestControllerRestartEquivalence is the service-level differential
// restart test: a controller persisting to a state dir, killed after a
// tick and reopened from the same command line (Open), must finish
// with a result DeepEqual to an uninterrupted controller's — including
// under a fault schedule with one solver fault consumed before the kill
// and one firing after the restore.
func TestControllerRestartEquivalence(t *testing.T) {
	faulted := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Attempts: 3},
		fault.SolverFault{Slot: 8, Attempts: 1},
	}}
	cases := []struct {
		name  string
		cfg   online.Config
		sched *fault.Schedule
	}{
		{"RHC", online.RHC(4), nil},
		{"CHC", online.CHC(4, 2), nil},
		{"RHC-faulted", online.RHC(4), faulted},
		{"CHC-faulted", online.CHC(4, 2), faulted},
	}
	const killAt = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			base := testInstance(t)
			tr := trace.Generate(base.Demand, 11)
			ocfg := tc.cfg
			ocfg.Faults = tc.sched

			uninterrupted, err := New(ctx, base, Config{Online: ocfg, EstimatorFloor: -1})
			if err != nil {
				t.Fatal(err)
			}
			driveToCompletion(t, uninterrupted, tr)
			want, err := uninterrupted.Result()
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{
				Online:         ocfg,
				EstimatorFloor: -1,
				StateDir:       t.TempDir(),
			}
			killed, err := Open(ctx, base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer killed.Close()
			for killed.Stats().Slot < killAt {
				ingestSlot(t, killed, tr, killed.Stats().Slot)
				if _, err := killed.Tick(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// The killed controller is dropped here; Open with the same
			// configuration must resume from the state dir.
			restored, err := Open(ctx, base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if got := restored.Stats().Slot; got != killAt {
				t.Fatalf("restored controller opens slot %d, want %d", got, killAt)
			}
			if got := restored.Stats().Ingested; got != killed.Stats().Ingested {
				t.Fatalf("restored ingestion counter %d, want %d", got, killed.Stats().Ingested)
			}
			driveToCompletion(t, restored, tr)
			got, err := restored.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Trajectory, got.Trajectory) {
				t.Fatal("restored trajectory diverges from the uninterrupted run")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("restored result diverges: %+v vs %+v", got, want)
			}
		})
	}
}

// TestOpenStartsFreshWithoutSnapshot checks Open's fresh-start path: an
// empty state dir means a new controller at slot 0.
func TestOpenStartsFreshWithoutSnapshot(t *testing.T) {
	base := testInstance(t)
	cfg := Config{
		Online:         online.RHC(4),
		EstimatorFloor: -1,
		StateDir:       t.TempDir(),
	}
	c, err := Open(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Stats().Slot; got != 0 {
		t.Fatalf("fresh Open starts at slot %d", got)
	}
}

// TestEnvelopeExcludesOpenSlotReports pins the Envelope invariant for a
// controller without a StateDir: Ingested counts exactly the reports
// folded into Rows, so reports booked into the open slot are neither in
// the envelope nor counted by a controller restored from it.
func TestEnvelopeExcludesOpenSlotReports(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1}
	c, err := New(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]Request{{SBS: 0, Class: 1, Content: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]Request{{SBS: 0, Class: 0, Content: 1}, {SBS: 0, Class: 2, Content: 3}}); err != nil {
		t.Fatal(err)
	}
	env := c.Snapshot()
	if env.Slot != 1 || len(env.Rows) != 1 || env.Ingested != 1 {
		t.Fatalf("envelope at slot %d with %d rows counts %d reports, want slot 1, 1 row, 1 report",
			env.Slot, len(env.Rows), env.Ingested)
	}
	if got := c.Stats().Ingested; got != 3 {
		t.Fatalf("live controller counts %d reports, want 3", got)
	}
	restored, err := restore(ctx, base, cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats().Ingested; got != 1 {
		t.Fatalf("restored controller counts %d reports, want the envelope's 1", got)
	}
}

// TestSnapshotFormatGuards checks the on-disk format gate: a foreign
// format version and a missing controller block are rejected; a missing
// file loads as (nil, nil).
func TestSnapshotFormatGuards(t *testing.T) {
	dir := t.TempDir()
	if env, err := LoadSnapshot(filepath.Join(dir, "missing.json")); env != nil || err != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", env, err)
	}
	path := filepath.Join(dir, "snap.json")
	if err := SaveSnapshot(path, &Envelope{FormatVersion: SnapshotFormatVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("LoadSnapshot accepted a foreign format version")
	}
	if err := SaveSnapshot(path, &Envelope{FormatVersion: SnapshotFormatVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("LoadSnapshot accepted an envelope without controller state")
	}
}

// TestIngestValidation checks the request-batch guards.
func TestIngestValidation(t *testing.T) {
	base := testInstance(t)
	c, err := New(context.Background(), base, Config{Online: online.RHC(4), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Request{
		{{SBS: -1}},
		{{SBS: base.N}},
		{{SBS: 0, Class: base.Classes[0]}},
		{{SBS: 0, Content: base.K}},
		{{SBS: 0, Count: -2}},
	}
	for i, batch := range bad {
		if _, err := c.Ingest(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	if _, err := c.Ingest([]Request{{SBS: 0, Class: 0, Content: 0, Count: 2.5}}); err != nil {
		t.Errorf("fractional count rejected: %v", err)
	}
}

// TestServerHTTP drives the full endpoint surface over a real listener:
// ingest, plan, explicit ticks to completion, stats, trajectory, health,
// and the conflict statuses after the horizon closes.
func TestServerHTTP(t *testing.T) {
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 3)
	c, err := New(context.Background(), base, Config{Online: online.RHC(4), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Controller: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	url := func(path string) string { return fmt.Sprintf("http://%s%s", srv.Addr(), path) }

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(url(path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}
	postJSON := func(path string, body, out any) int {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url(path), "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode
	}

	var h Health
	if code := getJSON("/v1/healthz", &h); code != http.StatusOK || !h.OK || h.Slot != 0 {
		t.Fatalf("healthz: code %d, %+v", code, h)
	}

	for slot := 0; slot < base.T; slot++ {
		var plan Plan
		if code := getJSON("/v1/plan", &plan); code != http.StatusOK {
			t.Fatalf("plan: status %d", code)
		}
		if plan.Slot != slot || plan.X == nil {
			t.Fatalf("slot %d: plan %+v", slot, plan)
		}
		var batch []Request
		for n := 0; n < tr.N(); n++ {
			for _, r := range tr.Slot(slot, n) {
				batch = append(batch, Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
		}
		var ack IngestResponse
		if code := postJSON("/v1/requests", IngestRequest{Requests: batch}, &ack); code != http.StatusOK {
			t.Fatalf("slot %d: ingest status %d", slot, code)
		}
		if ack.Slot != slot || ack.Accepted != len(batch) {
			t.Fatalf("slot %d: ack %+v for %d requests", slot, ack, len(batch))
		}
		var tick TickResult
		if code := postJSON("/v1/tick", nil, &tick); code != http.StatusOK {
			t.Fatalf("slot %d: tick status %d", slot, code)
		}
		if tick.Slot != slot || tick.X == nil || tick.Y == nil {
			t.Fatalf("slot %d: tick %+v", slot, tick)
		}
	}

	var stats Stats
	if code := getJSON("/v1/stats", &stats); code != http.StatusOK || !stats.Done {
		t.Fatalf("stats after completion: code %d, %+v", code, stats)
	}
	if stats.Ingested != int64(tr.Len()) {
		t.Fatalf("stats report %d ingested, trace has %d", stats.Ingested, tr.Len())
	}
	var traj model.Trajectory
	if code := getJSON("/v1/trajectory", &traj); code != http.StatusOK || len(traj) != base.T {
		t.Fatalf("trajectory: code %d, %d slots", code, len(traj))
	}
	if code := postJSON("/v1/tick", nil, nil); code != http.StatusConflict {
		t.Fatalf("tick after completion: status %d, want %d", code, http.StatusConflict)
	}
	if code := postJSON("/v1/requests", IngestRequest{Requests: []Request{{}}}, nil); code != http.StatusConflict {
		t.Fatalf("ingest after completion: status %d, want %d", code, http.StatusConflict)
	}
	if code := getJSON("/v1/plan", nil); code != http.StatusOK {
		t.Fatalf("plan after completion: status %d", code)
	}
	// Method guards.
	if code := getJSON("/v1/tick", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tick: status %d", code)
	}
	if code := postJSON("/v1/plan", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/plan: status %d", code)
	}
}

// TestServerTickerMockClock checks the wall-clock slot loop end to end
// on a mock clock: every Advance by one period closes exactly one slot,
// and the loop winds itself down at the horizon.
func TestServerTickerMockClock(t *testing.T) {
	base := testInstance(t)
	c, err := New(context.Background(), base, Config{Online: online.RHC(4), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	clock := NewMockClock(time.Unix(0, 0))
	const period = 100 * time.Millisecond
	srv, err := NewServer(ServerConfig{Controller: c, Clock: clock, SlotDuration: period})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("localhost:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	waitSlot := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := c.Stats()
			if st.Slot >= want || st.Done {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot stuck at %d waiting for %d", st.Slot, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for slot := 0; slot < base.T; slot++ {
		clock.Advance(period)
		waitSlot(slot + 1)
	}
	if !c.Done() {
		t.Fatal("ticker did not complete the horizon")
	}
	// Further advances must be harmless after the loop wound down.
	clock.Advance(10 * period)
}
