package serve

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"edgecache/internal/fault"
	"edgecache/internal/online"
	"edgecache/internal/trace"
)

// traceBatches groups a trace into the per-slot, per-SBS ingest batches
// the tests drive with; empty batches are dropped.
func traceBatches(tr *trace.Trace, T int) [][][]Request {
	out := make([][][]Request, T)
	for slot := 0; slot < T; slot++ {
		for n := 0; n < tr.N(); n++ {
			reqs := tr.Slot(slot, n)
			if len(reqs) == 0 {
				continue
			}
			batch := make([]Request, len(reqs))
			for i, r := range reqs {
				batch[i] = Request{SBS: r.SBS, Class: r.Class, Content: r.Content}
			}
			out[slot] = append(out[slot], batch)
		}
	}
	return out
}

// goldenResult runs the same controller uninterrupted and without
// persistence — the reference trajectory every durability test compares
// against.
func goldenResult(t *testing.T, cfg Config, tr *trace.Trace) *online.Result {
	t.Helper()
	base := testInstance(t)
	golden, err := New(context.Background(), base, Config{Online: cfg.Online, EstimatorFloor: cfg.EstimatorFloor})
	if err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, golden, tr)
	res, err := golden.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDurableKillLoop is the in-process half of the chaos acceptance
// criterion: a controller killed at seeded-random points — between
// operations, mid-WAL-append (torn frame), mid-snapshot-publish (torn
// file) and via silent bit flips — for at least 20 cycles must commit a
// trajectory DeepEqual to the uninterrupted run, with every acknowledged
// report surviving every kill and no duplicate ever ingested.
func TestDurableKillLoop(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 13)
	cfg := Config{Online: online.CHC(4, 2), EstimatorFloor: -1}
	want := goldenResult(t, cfg, tr)
	batches := traceBatches(tr, base.T)

	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	kills := 0
	acked := int64(0)
	slot, batchIdx := 0, 0
	var res *online.Result

	for cycle := 0; ; cycle++ {
		if cycle > 500 {
			t.Fatalf("kill loop did not converge after %d cycles (%d kills, slot %d)", cycle, kills, slot)
		}
		// Arm this incarnation's disk faults from the seeded stream: most
		// cycles crash mid-write somewhere in the first few durability ops.
		df := &fault.DiskFaults{Seed: uint64(cycle)*2654435761 + 1}
		switch rng.Intn(4) {
		case 1:
			df.TearWALAppend = int64(rng.Intn(3) + 1)
		case 2:
			df.TearSnapshot = int64(rng.Intn(2) + 1)
		case 3:
			df.FlipSnapshot = int64(rng.Intn(2) + 1)
		}
		dcfg := Config{
			Online:         cfg.Online,
			EstimatorFloor: cfg.EstimatorFloor,
			StateDir:       dir,
			SnapKeep:       2,
			DiskFaults:     df,
		}
		c, err := Open(ctx, base, dcfg)
		if err != nil {
			if errors.Is(err, fault.ErrCrash) {
				kills++ // crashed during recovery's own repair save
				continue
			}
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}

		// Recovery contract: exactly the acknowledged state, nothing more,
		// nothing less. A durable-but-unacknowledged close is the one
		// at-least-once case — the driver resyncs its cursor like a real
		// idempotent client.
		st := c.Stats()
		if st.Ingested != acked {
			t.Fatalf("cycle %d: recovered %d ingested reports, %d were acknowledged", cycle, st.Ingested, acked)
		}
		if st.Slot > slot {
			if st.Slot != slot+1 || batchIdx != len(batches[slot]) {
				t.Fatalf("cycle %d: recovered slot %d, driver at slot %d batch %d", cycle, st.Slot, slot, batchIdx)
			}
			slot, batchIdx = st.Slot, 0
		} else if st.Slot != slot {
			t.Fatalf("cycle %d: recovered slot %d, driver at slot %d", cycle, st.Slot, slot)
		}

		// One operation per incarnation: every cycle boundary is a kill
		// point, so the loop restarts after every single Ingest and Tick.
		const opLimit = 1
		crashed := false
		for op := 0; op < opLimit && !c.Done(); op++ {
			if batchIdx < len(batches[slot]) {
				b := batches[slot][batchIdx]
				if _, err := c.Ingest(b); err != nil {
					if errors.Is(err, fault.ErrCrash) {
						crashed = true
						break
					}
					t.Fatalf("cycle %d: ingest slot %d batch %d: %v", cycle, slot, batchIdx, err)
				}
				acked += int64(len(b))
				batchIdx++
			} else {
				if _, err := c.Tick(ctx); err != nil {
					if errors.Is(err, fault.ErrCrash) {
						crashed = true
						break
					}
					t.Fatalf("cycle %d: tick slot %d: %v", cycle, slot, err)
				}
				slot, batchIdx = slot+1, 0
			}
		}
		if c.Done() && !crashed {
			res, err = c.Result()
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			break
		}
		c.Close() // abandon the incarnation: everything in memory dies here
		kills++
	}

	if kills < 20 {
		t.Fatalf("only %d kills exercised; the loop must survive at least 20", kills)
	}
	if acked != int64(tr.Len()) {
		t.Fatalf("acknowledged %d reports, trace has %d", acked, tr.Len())
	}
	if !reflect.DeepEqual(want.Trajectory, res.Trajectory) {
		t.Fatal("kill-loop trajectory diverges from the uninterrupted run")
	}
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("kill-loop result diverges: %+v vs %+v", res, want)
	}
	t.Logf("kill loop: %d kills, %d reports, trajectory identical", kills, acked)
}

// driveDurableSlots opens a durable controller and closes slots [from,
// to), feeding the trace; it returns the controller still open.
func driveDurableSlots(t *testing.T, cfg Config, tr *trace.Trace, to int) *Controller {
	t.Helper()
	ctx := context.Background()
	base := testInstance(t)
	c, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c.Stats().Slot < to && !c.Done() {
		slot := c.Stats().Slot
		ingestSlot(t, c, tr, slot)
		if _, err := c.Tick(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestCorruptLatestGenerationFallback pins the fallback path: when the
// newest snapshot generation is bit-flipped on disk, Open falls back to
// the previous generation, replays the WAL across the gap, repairs the
// damaged generation, and the run still finishes identical to an
// uninterrupted one.
func TestCorruptLatestGenerationFallback(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 17)
	dir := t.TempDir()
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: dir, SnapKeep: 3}
	want := goldenResult(t, cfg, tr)

	c := driveDurableSlots(t, cfg, tr, 5)
	ingested := c.Stats().Ingested
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	gens, _, err := listStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 || gens[len(gens)-1] != 5 {
		t.Fatalf("generations on disk: %v, want newest 5", gens)
	}
	// Flip one bit in the middle of the newest generation.
	path := genPath(dir, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	corrupt0, fallback0 := mSnapCorrupt.Value(), mSnapFallbacks.Value()
	restored, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("open with corrupt newest generation: %v", err)
	}
	defer restored.Close()
	if got := restored.Stats().Slot; got != 5 {
		t.Fatalf("restored slot %d, want 5", got)
	}
	if got := restored.Stats().Ingested; got != ingested {
		t.Fatalf("restored %d ingested, want %d", got, ingested)
	}
	if mSnapCorrupt.Value() == corrupt0 || mSnapFallbacks.Value() == fallback0 {
		t.Error("corruption fallback did not bump serve.snapshot_{corrupt,fallbacks}")
	}
	// The damaged generation was repaired in place: it must verify now.
	if _, err := loadGeneration(dir, 5); err != nil {
		t.Fatalf("generation 5 not repaired: %v", err)
	}

	driveToCompletion(t, restored, tr)
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result after corruption fallback diverges from the uninterrupted run")
	}
}

// TestTruncatedLatestGenerationFallback is the torn-rename flavour: the
// newest generation is a byte prefix of itself.
func TestTruncatedLatestGenerationFallback(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 19)
	dir := t.TempDir()
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: dir, SnapKeep: 2}

	c := driveDurableSlots(t, cfg, tr, 3)
	ingested := c.Stats().Ingested
	c.Close()

	path := genPath(dir, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("open with truncated newest generation: %v", err)
	}
	defer restored.Close()
	if st := restored.Stats(); st.Slot != 3 || st.Ingested != ingested {
		t.Fatalf("restored slot %d ingested %d, want 3 and %d", st.Slot, st.Ingested, ingested)
	}
}

// TestWALGarbageTailTolerated appends garbage to the live segment (the
// crash-mid-append signature) and checks that recovery truncates it,
// keeps every good record, and later appends stay reachable across one
// more restart.
func TestWALGarbageTailTolerated(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 23)
	dir := t.TempDir()
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: dir}

	c, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	booked := ingestSlot(t, c, tr, 0)
	c.Close()

	// Garbage tail on the live segment: a half-written frame.
	frame, err := appendWALFrame(nil, walRecord{Seq: 999, Kind: walKindClose, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 0)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)-5])
	f.Close()

	torn0 := mWALTornTail.Value()
	c, err = Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("open with garbage wal tail: %v", err)
	}
	if got := c.Stats().Ingested; got != int64(booked) {
		t.Fatalf("recovered %d reports, booked %d", got, booked)
	}
	if mWALTornTail.Value() == torn0 {
		t.Error("torn tail not counted in serve.wal_torn_tail")
	}
	// Appending after the truncated tail must stay reachable.
	if _, err := c.Ingest([]Request{{SBS: 0, Class: 0, Content: 0, Count: 3}}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, err = Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Stats().Ingested; got != int64(booked)+1 {
		t.Fatalf("after tail truncation and append: %d reports, want %d", got, booked+1)
	}
}

// TestWALContinuityGuards pins the refusal cases: damage that would
// silently drop acknowledged records is a hard startup error, not a
// fallback.
func TestWALContinuityGuards(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 29)
	dir := t.TempDir()
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: dir}

	c := driveDurableSlots(t, cfg, tr, 2)
	ingestSlot(t, c, tr, 2)
	c.Close()

	// A torn tail on a NON-final segment breaks continuity.
	segs := func() []int {
		_, segs, err := listStateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}()
	if len(segs) < 2 {
		t.Fatalf("segments on disk: %v, want at least 2", segs)
	}
	victim := segPath(dir, segs[0])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, base, cfg); err == nil {
		t.Fatal("open accepted a torn non-final segment")
	}
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A record deleted from the middle (sequence gap) is rejected too:
	// rewrite the final segment without its first record.
	final := segPath(dir, segs[len(segs)-1])
	data, err = os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := decodeWALBuffer(data)
	if len(recs) < 2 {
		t.Skipf("final segment has %d records; need 2 for a gap", len(recs))
	}
	var rebuilt []byte
	for _, r := range recs[1:] {
		frame, err := appendWALFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, frame...)
	}
	if err := os.WriteFile(final, rebuilt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, base, cfg); err == nil {
		t.Fatal("open accepted a wal with a sequence gap")
	}
}

// TestGenerationPruning checks keep-N retention and that pruning never
// deletes a WAL segment a surviving generation still needs.
func TestGenerationPruning(t *testing.T) {
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 31)
	dir := t.TempDir()
	cfg := Config{Online: online.RHC(4), EstimatorFloor: -1, StateDir: dir, SnapKeep: 2}

	c := driveDurableSlots(t, cfg, tr, 6)
	defer c.Close()
	gens, segs, err := listStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []int{5, 6}) {
		t.Fatalf("generations %v, want [5 6]", gens)
	}
	// Oldest kept generation is 5: segment 5 (its replay source) and the
	// live segment 6 must survive; everything older must be gone.
	if !reflect.DeepEqual(segs, []int{5, 6}) {
		t.Fatalf("segments %v, want [5 6]", segs)
	}
}

// TestFaultedScheduleDurableRestart combines the PR 5 fault schedules
// with the durability layer: solver faults before and after a mid-write
// kill, recovery through the WAL, DeepEqual result.
func TestFaultedScheduleDurableRestart(t *testing.T) {
	sched := &fault.Schedule{Injectors: []fault.Injector{
		fault.SolverFault{Slot: 2, Attempts: 3},
		fault.SolverFault{Slot: 8, Attempts: 1},
	}}
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 37)
	ocfg := online.CHC(4, 2)
	ocfg.Faults = sched

	golden, err := New(ctx, base, Config{Online: ocfg, EstimatorFloor: -1, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, golden, tr)
	want, err := golden.Result()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{
		Online: ocfg, EstimatorFloor: -1, Faults: sched,
		StateDir: dir, SnapKeep: 2,
		DiskFaults: &fault.DiskFaults{Seed: 99, TearWALAppend: 13},
	}
	c, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := int64(0)
	batches := traceBatches(tr, base.T)
	slot, batchIdx := 0, 0
	crashed := false
	for !c.Done() && !crashed {
		if batchIdx < len(batches[slot]) {
			if _, err := c.Ingest(batches[slot][batchIdx]); err != nil {
				if errors.Is(err, fault.ErrCrash) {
					crashed = true
					break
				}
				t.Fatal(err)
			}
			acked += int64(len(batches[slot][batchIdx]))
			batchIdx++
		} else {
			if _, err := c.Tick(ctx); err != nil {
				if errors.Is(err, fault.ErrCrash) {
					crashed = true // torn close marker: the slot never closed
					break
				}
				t.Fatal(err)
			}
			slot, batchIdx = slot+1, 0
		}
	}
	if !crashed {
		t.Fatal("armed tear never fired; raise TearWALAppend coverage")
	}
	c.Close()

	cfg.DiskFaults = nil
	c, err = Open(ctx, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Stats().Ingested; got != acked {
		t.Fatalf("recovered %d reports, %d acknowledged", got, acked)
	}
	// Resume: the torn batch was never acknowledged — send it again.
	if got := c.Stats().Slot; got != slot {
		t.Fatalf("recovered slot %d, driver at %d", got, slot)
	}
	for !c.Done() {
		if batchIdx < len(batches[slot]) {
			if _, err := c.Ingest(batches[slot][batchIdx]); err != nil {
				t.Fatal(err)
			}
			batchIdx++
		} else {
			if _, err := c.Tick(ctx); err != nil {
				t.Fatal(err)
			}
			slot, batchIdx = slot+1, 0
		}
	}
	got, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("faulted durable restart diverges from the uninterrupted faulted run")
	}
}

// TestOpenReadsGenerationWithCompactFlags pins backward compatibility of
// the durable store: testdata/compactok-state is a state dir written by a
// version-2 build whose snapshots carried per-slot "compactOK" flags
// (CHC(4,2), trace seed 19, closed through slot 5) and that still carries
// every closed slot's per-version actions. No struct field matches the
// flags any more; the checksum covers the raw bytes, so the JSON
// generation still verifies. The fixture's wal.000005 is empty; the
// first half of slot 5's reports is written into it as a version-2 JSON
// frame before the first Open, and the second half is ingested after
// it, so a binary frame follows the JSON one in the reopened segment.
// The controller must recover both halves across a second Open and
// finish identical to an uninterrupted run.
func TestOpenReadsGenerationWithCompactFlags(t *testing.T) {
	ctx := context.Background()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 19)
	dir := t.TempDir()
	for _, name := range []string{"snap.000005.json", "wal.000005"} {
		data, err := os.ReadFile("testdata/compactok-state/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Online: online.CHC(4, 2), EstimatorFloor: -1, StateDir: dir, SnapKeep: 1}
	want := goldenResult(t, cfg, tr)

	gen, err := loadGeneration(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, batch := range traceBatches(tr, base.T)[5] {
		reqs = append(reqs, batch...)
	}
	half := len(reqs) / 2
	if half == 0 {
		t.Fatalf("slot 5 has %d reports; need 2 to split across formats", len(reqs))
	}
	seg := jsonWALFrame(t, walRecord{Seq: gen.WalSeq + 1, Kind: walKindReports, Slot: 5, Reqs: reqs[:half]})
	if err := os.WriteFile(segPath(dir, 5), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("open state written with compact flags: %v", err)
	}
	if got := c.Stats(); got.Slot != 5 || got.Ingested != gen.Ingested+int64(half) {
		t.Fatalf("restored slot %d with %d reports, want 5 and %d", got.Slot, got.Ingested, gen.Ingested+int64(half))
	}
	if _, err := c.Ingest(reqs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs, n := decodeWALBuffer(data)
	if n != len(data) || len(recs) != 2 || data[walFrameHeader] != '{' || data[len(seg)+walFrameHeader] != walTagV3 {
		t.Fatalf("wal.000005 holds %d records in %d of %d bytes; want a JSON frame, then a binary one", len(recs), n, len(data))
	}

	c, err = Open(ctx, base, cfg)
	if err != nil {
		t.Fatalf("open a segment of JSON and binary frames: %v", err)
	}
	defer c.Close()
	if got := c.Stats(); got.Slot != 5 || got.Ingested != gen.Ingested+int64(len(reqs)) {
		t.Fatalf("reopened at slot %d with %d reports, want 5 and %d", got.Slot, got.Ingested, gen.Ingested+int64(len(reqs)))
	}
	if _, err := c.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, c, tr)
	got, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("result after restoring a compact-flag generation diverges from the uninterrupted run")
	}
}
