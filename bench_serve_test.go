// Durable-service benchmarks: writing and reading back one snapshot
// generation, the per-slot-close and per-recovery costs of the
// crash-safe controller, plus a whole recovery and one report append
// (DESIGN.md §12, §14).
package edgecache_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"edgecache"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
)

// chcConfig is the serve-chc workload's controller: CHC(6,3) with the
// estimator floor off.
var chcConfig = serve.Config{Online: online.CHC(6, 3), EstimatorFloor: -1}

// serveCHC opens a controller under cfg on the 2-SBS, 8-class, K=30, 30-slot topology of
// the serve-chc benchmark workload and drives it through its public
// Ingest/Tick API until slot 20 is open; with book, slot 20's reports are
// booked too. It returns the controller and its instance.
func serveCHC(b *testing.B, cfg serve.Config, book bool) (*serve.Controller, *model.Instance) {
	b.Helper()
	in, _, err := edgecache.NewScenario(2, 30, 8, 30).
		WithCache(4).WithBandwidth(20).WithBeta(50).WithJitter(0.4).WithSeed(1).Build()
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(in.Demand, 1)
	ctx := context.Background()
	c, err := serve.Open(ctx, in, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for slot := 0; slot <= 20; slot++ {
		for n := 0; n < tr.N(); n++ {
			var batch []serve.Request
			for _, r := range tr.Slot(slot, n) {
				batch = append(batch, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
			if len(batch) == 0 || slot == 20 && !book {
				continue
			}
			if _, err := c.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if slot == 20 {
			break
		}
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	return c, in
}

// serveEnvelope returns the envelope an in-memory serveCHC controller
// would publish with slot 20 open.
func serveEnvelope(b *testing.B) *serve.Envelope {
	b.Helper()
	c, _ := serveCHC(b, chcConfig, false)
	return c.Snapshot()
}

// BenchmarkServe_SnapshotPublish times one generation publish: encode
// with checksum, write, fsync, rename, fsync the directory.
func BenchmarkServe_SnapshotPublish(b *testing.B) {
	env := serveEnvelope(b)
	path := filepath.Join(b.TempDir(), "snap.json")
	b.ReportAllocs()
	for b.Loop() {
		if err := serve.SaveSnapshot(path, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServe_SnapshotLoad times reading one generation back: read,
// parse and checksum verification, the snapshot half of a recovery.
func BenchmarkServe_SnapshotLoad(b *testing.B) {
	env := serveEnvelope(b)
	path := filepath.Join(b.TempDir(), "snap.json")
	if err := serve.SaveSnapshot(path, env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := serve.LoadSnapshot(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServe_CloseSlot times one warm-start Tick of a durable
// serve-chc-shaped controller under FsyncOff: the close of slot 20 with
// its reports booked (the window solves, combine and round), the fsynced
// WAL close marker and the generation publish. Each op reopens a fresh
// copy of the state dir left by serveCHC outside the timer, so every op
// closes the same slot from the same warm state.
func BenchmarkServe_CloseSlot(b *testing.B) {
	root := b.TempDir()
	cfg := chcConfig
	cfg.StateDir, cfg.WALFsync = filepath.Join(root, "template"), serve.FsyncOff
	c, in := serveCHC(b, cfg, true)
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	template := os.DirFS(cfg.StateDir)
	cfg.StateDir = filepath.Join(root, "op")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(cfg.StateDir); err != nil {
			b.Fatal(err)
		}
		if err := os.CopyFS(cfg.StateDir, template); err != nil {
			b.Fatal(err)
		}
		c, err := serve.Open(ctx, in, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// ingestShape is the serve-ingest benchmark workload's topology and
// controller: 4 SBSs, 8 classes, K=30, 60 slots, RHC(2), reports sent in
// batches of ingestBatch.
func ingestShape(b *testing.B) (*model.Instance, *trace.Trace, serve.Config) {
	b.Helper()
	in, _, err := edgecache.NewScenario(4, 30, 8, 60).
		WithCache(5).WithBandwidth(3000).WithBeta(100).WithDensity(400).
		WithJitter(0.4).WithSeed(1).Build()
	if err != nil {
		b.Fatal(err)
	}
	return in, trace.Generate(in.Demand, 1), serve.Config{Online: online.RHC(2), EstimatorFloor: -1, WALFsync: serve.FsyncOff}
}

const ingestBatch = 16

// ingestSlotBatches books slot s of tr into c in batches of ingestBatch
// and returns how many batches it sent.
func ingestSlotBatches(b *testing.B, c *serve.Controller, tr *trace.Trace, s int) int {
	b.Helper()
	var reqs []serve.Request
	for n := 0; n < tr.N(); n++ {
		for _, r := range tr.Slot(s, n) {
			reqs = append(reqs, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
		}
	}
	batches := 0
	for lo := 0; lo < len(reqs); lo += ingestBatch {
		if _, err := c.Ingest(reqs[lo:min(lo+ingestBatch, len(reqs))]); err != nil {
			b.Fatal(err)
		}
		batches++
	}
	return batches
}

// BenchmarkServe_Recover times serve.Open on a serve-ingest-shaped state
// dir: the generation published when slot 10 opened, then one open slot
// of reports in the WAL (~390 records of 16). Open restores the
// generation, replays the records and solves the open slot's window.
func BenchmarkServe_Recover(b *testing.B) {
	in, tr, cfg := ingestShape(b)
	cfg.StateDir = b.TempDir()
	ctx := context.Background()
	c, err := serve.Open(ctx, in, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		ingestSlotBatches(b, c, tr, s)
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
	records := ingestSlotBatches(b, c, tr, 10)
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c, err := serve.Open(ctx, in, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkServe_Report times one 16-report Ingest on a durable
// serve-ingest-shaped controller under FsyncOff: validation, WAL frame
// encode and write, and booking into the open slot.
func BenchmarkServe_Report(b *testing.B) {
	in, tr, cfg := ingestShape(b)
	cfg.StateDir = b.TempDir()
	c, err := serve.Open(context.Background(), in, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var batch []serve.Request
	for _, r := range tr.Slot(0, 0)[:ingestBatch] {
		batch = append(batch, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
}
