// Durable-service publish benchmarks: writing and reading back one
// snapshot generation, the per-slot-close and per-recovery costs of the
// crash-safe controller (DESIGN.md §12, §14).
package edgecache_test

import (
	"context"
	"path/filepath"
	"testing"

	"edgecache"
	"edgecache/internal/online"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
)

// serveEnvelope drives a CHC(6,3) controller over the 2-SBS, 8-class,
// K=30, 30-slot topology of the serve-chc benchmark workload through its
// public Ingest/Tick API, and returns the envelope it would publish with
// slot 20 open.
func serveEnvelope(b *testing.B) *serve.Envelope {
	b.Helper()
	in, _, err := edgecache.NewScenario(2, 30, 8, 30).
		WithCache(4).WithBandwidth(20).WithBeta(50).WithJitter(0.4).WithSeed(1).Build()
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(in.Demand, 1)
	ctx := context.Background()
	c, err := serve.New(ctx, in, serve.Config{Online: online.CHC(6, 3), EstimatorFloor: -1})
	if err != nil {
		b.Fatal(err)
	}
	for slot := 0; slot < 20; slot++ {
		for n := 0; n < tr.N(); n++ {
			var batch []serve.Request
			for _, r := range tr.Slot(slot, n) {
				batch = append(batch, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
			if len(batch) == 0 {
				continue
			}
			if _, err := c.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Tick(ctx); err != nil {
			b.Fatal(err)
		}
	}
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
