package serve

import (
	"bytes"
	"context"
	"testing"

	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// FuzzSnapshotAndWALDecode feeds arbitrary bytes to both on-disk
// decoders. The contract under fuzz is narrow and absolute: corrupt
// input yields an error (snapshot) or a truncated record list (WAL) —
// never a panic, never an unbounded allocation. The seed corpus covers
// the two shapes a crash actually leaves behind, a truncated valid
// snapshot and a valid WAL prefix with a garbage tail, plus the two
// edits the raw-bytes checksum must catch around the offset it cuts at:
// a key bit flip and a removed checksum member.
func FuzzSnapshotAndWALDecode(f *testing.F) {
	// Seed 1: prefixes of a real snapshot envelope.
	cfg := workload.PaperDefault()
	cfg.T = 3
	cfg.K = 4
	cfg.ClassesPerSBS = 2
	cfg.CacheCap = 1
	cfg.Bandwidth = 4
	cfg.Beta = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		f.Fatal(err)
	}
	est, err := workload.NewOnlineEstimator(in.Demand, 0, -1)
	if err != nil {
		f.Fatal(err)
	}
	stream, err := online.NewStream(context.Background(), in, est, online.RHC(2))
	if err != nil {
		f.Fatal(err)
	}
	env := &Envelope{
		FormatVersion: SnapshotFormatVersion,
		Algorithm:     "rhc",
		Slot:          0,
		WalSeq:        7,
		Controller:    stream.Snapshot(),
	}
	valid, err := encodeSnapshot(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add(bytes.Replace(valid, []byte(`"slot"`), []byte(`"Slot"`), 1))
	member := bytes.Index(valid, []byte(`,"checksum":`))
	rows := bytes.Index(valid, rowsKey)
	if member < 0 || rows < member {
		f.Fatal("seed snapshot carries no checksum member in front of rows")
	}
	f.Add(append(valid[:member:member], valid[rows:]...))

	// Seed 2: two good WAL frames followed by a garbage tail.
	frame1, err := encodeWALFrame(walRecord{Seq: 1, Kind: walKindReports, Slot: 0, Reqs: []Request{{SBS: 0, Class: 1, Content: 2, Count: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	frame2, err := encodeWALFrame(walRecord{Seq: 2, Kind: walKindClose, Slot: 0})
	if err != nil {
		f.Fatal(err)
	}
	wal := append(append([]byte{}, frame1...), frame2...)
	f.Add(append(append([]byte{}, wal...), 0xDE, 0xAD, 0xBE, 0xEF))
	f.Add(wal[:len(wal)-3])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Snapshot decode: error or a structurally valid envelope.
		if env, err := decodeSnapshot(data); err == nil {
			if env.Controller == nil {
				t.Fatal("decodeSnapshot returned nil controller without error")
			}
			if env.FormatVersion != SnapshotFormatVersion && env.FormatVersion != 1 {
				t.Fatalf("decodeSnapshot accepted foreign version %d", env.FormatVersion)
			}
		}
		// WAL decode: the good prefix is consistent with the input.
		recs, n := decodeWALBuffer(data)
		if n < 0 || n > len(data) {
			t.Fatalf("good prefix %d out of range for %d bytes", n, len(data))
		}
		if n == 0 && len(recs) != 0 {
			t.Fatalf("%d records decoded from an empty good prefix", len(recs))
		}
		// Re-decoding the good prefix must reproduce the records exactly.
		again, m := decodeWALBuffer(data[:n])
		if m != n || len(again) != len(recs) {
			t.Fatalf("good prefix unstable: (%d records, %d bytes) vs (%d, %d)", len(again), m, len(recs), n)
		}
	})
}
