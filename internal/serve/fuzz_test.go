package serve

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// FuzzSnapshotAndWALDecode feeds arbitrary bytes to both on-disk
// decoders. The contract under fuzz is narrow and absolute: corrupt
// input yields an error (snapshot) or a truncated record list (WAL) —
// never a panic, never an unbounded allocation — a format-4 generation
// that decodes re-encodes to exactly its input bytes, and a format-3 one
// re-encodes as format 4 to the same state. The seed corpus covers every
// format. For v2, the checked-in JSON generation, its prefixes and the
// two edits the raw-bytes checksum must catch around the offset it cuts
// at: a key bit flip and a removed checksum member. For format 4, a real
// generation, its prefixes, a bit flip and length fields larger than the
// bytes left under a valid checksum. For format 3, the checked-in
// generation. For the WAL, JSON and binary frames in one buffer, with a
// garbage or torn tail.
func FuzzSnapshotAndWALDecode(f *testing.F) {
	v2, err := os.ReadFile("testdata/compactok-state/snap.000005.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(v2[:1])
	f.Add(bytes.Replace(v2, []byte(`"slot"`), []byte(`"Slot"`), 1))
	member := bytes.Index(v2, []byte(`,"checksum":`))
	rows := bytes.Index(v2, rowsKey)
	if member < 0 || rows < member {
		f.Fatal("v2 seed carries no checksum member in front of rows")
	}
	f.Add(append(v2[:member:member], v2[rows:]...))

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
	v3 := appendSnapshot(nil, &Envelope{
		FormatVersion: SnapshotFormatVersion,
		Algorithm:     "rhc",
		WalSeq:        7,
		Controller:    stream.Snapshot(),
	})
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(v3[:len(v3)-1])
	f.Add(v3[:1])
	flipped := append([]byte(nil), v3...)
	flipped[len(flipped)/3] ^= 0x04
	f.Add(flipped)
	for _, body := range oversizedLengthBodies() {
		f.Add(withCRC(body))
	}

	var wal []byte
	wal = append(wal, jsonWALFrame(f, walRecord{Seq: 1, Kind: walKindReports, Slot: 0, Reqs: []Request{{SBS: 0, Class: 1, Content: 2, Count: 3}}})...)
	wal, err = appendWALFrame(wal, walRecord{Seq: 2, Kind: walKindReports, Slot: 0, Reqs: []Request{{SBS: 1, Class: 0, Content: 3}}})
	if err != nil {
		f.Fatal(err)
	}
	wal, err = appendWALFrame(wal, walRecord{Seq: 3, Kind: walKindClose, Slot: 0})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(append(append([]byte{}, wal...), 0xDE, 0xAD, 0xBE, 0xEF))
	f.Add(wal[:len(wal)-3])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	v3gen, err := os.ReadFile("testdata/format3-state/snap.000005.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3gen)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Snapshot decode: error or a structurally valid envelope.
		if env, err := decodeSnapshot(data); err == nil {
			if env.Controller == nil {
				t.Fatal("decodeSnapshot returned nil controller without error")
			}
			switch env.FormatVersion {
			case SnapshotFormatVersion:
				if again := appendSnapshot(nil, env); !bytes.Equal(again, data) {
					t.Fatalf("format-4 generation re-encodes to different bytes:\n got % x\nwant % x", again, data)
				}
			case iteratesFormatVersion:
				up := *env
				up.FormatVersion = SnapshotFormatVersion
				again, err := decodeSnapshot(appendSnapshot(nil, &up))
				if err != nil {
					t.Fatalf("format-3 generation re-encoded as format 4 fails to decode: %v", err)
				}
				again.Checksum = up.Checksum
				if !reflect.DeepEqual(again, &up) {
					t.Fatal("format-3 generation re-encoded as format 4 decodes to a different envelope")
				}
			case jsonFormatVersion:
			default:
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
