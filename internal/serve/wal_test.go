package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgecache/internal/fault"
)

// jsonWALFrame frames rec the way version-2 builds wrote it: a JSON
// payload under the same length + CRC32C header.
func jsonWALFrame(t testing.TB, rec walRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, walFrameHeader, walFrameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// TestWALFrameRoundTrip pins the frame format: length+CRC32C header,
// binary payload behind its tag byte, decoded records identical to what
// was appended, also when version-2 JSON frames precede them in the
// same buffer.
func TestWALFrameRoundTrip(t *testing.T) {
	recs := []walRecord{
		{Seq: 1, Kind: walKindReports, Slot: 0, Reqs: []Request{{SBS: 0, Class: 1, Content: 2, Count: 2.5}}},
		{Seq: 2, Kind: walKindClose, Slot: 0},
		{Seq: 3, Kind: walKindReports, Slot: 1, Reqs: []Request{{SBS: 1}, {SBS: 2, Class: 300, Content: 70000, Count: math.MaxFloat64}}},
		{Seq: 4, Kind: walKindReports, Slot: 1, Reqs: []Request{{SBS: 1, Count: math.SmallestNonzeroFloat64}}},
		{Seq: 5, Kind: walKindClose, Slot: 1},
	}
	var buf bytes.Buffer
	for _, r := range recs[:2] {
		buf.Write(jsonWALFrame(t, r))
	}
	for _, r := range recs[2:] {
		frame, err := appendWALFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if frame[walFrameHeader] != walTagV3 {
			t.Fatalf("payload opens with %#x, want the v3 tag", frame[walFrameHeader])
		}
		buf.Write(frame)
	}
	got, goodLen := decodeWALBuffer(buf.Bytes())
	if goodLen != buf.Len() {
		t.Fatalf("good prefix %d of %d bytes", goodLen, buf.Len())
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("decoded %+v, want %+v", got, recs)
	}
}

// TestWALDecodeTornTail checks the tail-tolerance contract: a garbage or
// half-written suffix terminates the walk at the last good frame without
// error, and corruption inside a frame is caught by the CRC.
func TestWALDecodeTornTail(t *testing.T) {
	good, err := appendWALFrame(nil, walRecord{Seq: 1, Kind: walKindClose, Slot: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want int // records decoded
		good int // good prefix length
	}{
		{"empty", nil, 0, 0},
		{"garbage", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}, 0, 0},
		{"half header", good[:4], 0, 0},
		{"half frame", good[:len(good)-3], 0, 0},
		{"good then garbage", append(append([]byte{}, good...), 0xDE, 0xAD, 0xBE), 1, len(good)},
		{"good then half frame", append(append([]byte{}, good...), good[:len(good)-1]...), 1, len(good)},
		{"zero length", []byte{0, 0, 0, 0, 0, 0, 0, 0}, 0, 0},
	}
	for _, tc := range cases {
		recs, n := decodeWALBuffer(tc.data)
		if len(recs) != tc.want || n != tc.good {
			t.Errorf("%s: %d records, prefix %d; want %d, %d", tc.name, len(recs), n, tc.want, tc.good)
		}
	}
	// A flipped payload bit fails the CRC and terminates the walk.
	flipped := append([]byte{}, good...)
	flipped[walFrameHeader+2] ^= 0x10
	if recs, n := decodeWALBuffer(flipped); len(recs) != 0 || n != 0 {
		t.Errorf("bit flip: decoded %d records, prefix %d", len(recs), n)
	}
}

// TestWALSegmentAppendTruncation checks that reopening a torn segment
// truncates the tail before appending, so later records stay reachable.
func TestWALSegmentAppendTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.000000")
	w, err := openWALSegment(path, 0, FsyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Seq: 1, Kind: walKindClose, Slot: 0}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the file: half of a second record.
	frame, err := appendWALFrame(nil, walRecord{Seq: 2, Kind: walKindClose, Slot: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, goodLen, torn, err := readWALSegment(path)
	if err != nil || !torn || len(recs) != 1 {
		t.Fatalf("torn read: %d records, torn=%v, err=%v", len(recs), torn, err)
	}
	// Reopen at the good prefix and append seq 2 for real.
	w, err = openWALSegment(path, goodLen, FsyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Seq: 2, Kind: walKindClose, Slot: 1}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err = readWALSegment(path)
	if err != nil || torn || len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("after truncating reopen: %d records, torn=%v, err=%v", len(recs), torn, err)
	}
}

// TestParsePolicies covers the flag parsers for fsync and catch-up.
func TestParsePolicies(t *testing.T) {
	if p, err := ParseFsyncPolicy(""); p != FsyncAlways || err != nil {
		t.Fatalf("empty fsync policy: %v, %v", p, err)
	}
	for _, s := range []string{"always", "interval", "off"} {
		if _, err := ParseFsyncPolicy(s); err != nil {
			t.Errorf("%q rejected: %v", s, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus fsync policy accepted")
	}
	if p, n, err := ParseCatchUpPolicy(""); p != CatchUpSkip || n != 0 || err != nil {
		t.Fatalf("empty catch-up policy: %v, %d, %v", p, n, err)
	}
	if p, n, err := ParseCatchUpPolicy("fastforward:4"); p != CatchUpFastForward || n != 4 || err != nil {
		t.Fatalf("fastforward:4: %v, %d, %v", p, n, err)
	}
	for _, s := range []string{"fastforward:0", "fastforward:x", "eventually"} {
		if _, _, err := ParseCatchUpPolicy(s); err == nil {
			t.Errorf("bogus catch-up policy %q accepted", s)
		}
	}
}

// TestParseDisk covers the disk-fault DSL.
func TestParseDisk(t *testing.T) {
	d, err := fault.ParseDisk("tearwal:op=5; flipsnap:op=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.TearWALAppend != 5 || d.FlipSnapshot != 2 || d.TearSnapshot != 0 {
		t.Fatalf("parsed %+v", d)
	}
	for _, spec := range []string{"", "tearwal:op=0", "tearwal:n=3", "burn:op=1"} {
		if _, err := fault.ParseDisk(spec, 7); err == nil {
			t.Errorf("bogus disk spec %q accepted", spec)
		}
	}
}

// TestDiskFaultDeterminism pins that tear offsets are pure functions of
// (seed, op): two identically armed injectors tear identically.
func TestDiskFaultDeterminism(t *testing.T) {
	a := &fault.DiskFaults{Seed: 3, TearWALAppend: 2}
	b := &fault.DiskFaults{Seed: 3, TearWALAppend: 2}
	for op := 0; op < 3; op++ {
		ka, ta := a.WALTear(100)
		kb, tb := b.WALTear(100)
		if ka != kb || ta != tb {
			t.Fatalf("op %d: (%d,%v) vs (%d,%v)", op, ka, ta, kb, tb)
		}
		if ta && (ka < 0 || ka >= 100) {
			t.Fatalf("op %d: tear keeps %d of 100 bytes — not a strict prefix", op, ka)
		}
	}
}
