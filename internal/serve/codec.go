package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"edgecache/internal/model"
	"edgecache/internal/online"
)

// The on-disk format of the durable store (DESIGN.md §14): snapshot
// generations and WAL frame payloads. This build writes generation
// format 4, a binary encoding. It still reads format 3, the same
// encoding with six more fields per version (the cross-window P2
// iterate carry earlier builds kept), and format 2, the JSON encoding,
// so state directories written by earlier builds keep opening.
//
// Generation (formats 3 and 4):
//
//	"JOCGEN"  varint(FormatVersion)
//	Envelope fields, then the StreamSnapshot, VersionSnapshot and
//	VersionStats fields, in declaration order
//	uint32 LE CRC32C over every preceding byte
//
// Format 3 has six more fields between each version's MuTo and XA: a
// bool (the workspace was bound), three ints (that window's decision
// time, first and end slot), a floats2 (its initial plan) and a floats2
// (the per-slot P2 iterates). The decoder checks and drops them.
//
// Integers are varints (zig-zag for signed types), strings and slices
// are length-prefixed. A slice length is written as len+1 with 0 for a
// nil slice, so nil and empty stay distinct at every level. A float64 is
// its bit pattern byte-reversed and written as a uvarint: exactly 0
// takes one byte and small integers at most three, while the pattern
// (−0, subnormals, NaN payloads) round-trips exactly. FaultBudgets is
// written in ascending key order, so one envelope always encodes to the
// same bytes; the decoder accepts only what the encoder writes (canonical
// varints, bools 0 or 1, ascending keys, no trailing bytes), so a
// format-4 generation that decodes re-encodes to exactly its input.
//
// WAL payload v3 (generation format 4 left it unchanged): the tag byte
// walTagV3, then the seq, the kind, the slot, the report count n and
// n × (sbs, class, content, count).
// A v2 payload is a JSON object and so starts with '{'; the decoder
// chooses per frame, so one segment may hold both.

// SnapshotFormatVersion is the generation format this build writes.
// Bump on any incompatible change to the binary layout, Envelope or
// online.StreamSnapshot; decoding rejects foreign versions loudly
// instead of mis-restoring.
const SnapshotFormatVersion = 4

// iteratesFormatVersion is the last binary format that carried the P2
// iterate fields; it is read only.
const iteratesFormatVersion = 3

// genMagic opens every binary generation; the format version follows it.
var genMagic = []byte("JOCGEN")

// jsonFormatVersion is the last format written as JSON; it is read only.
const jsonFormatVersion = 2

// walTagV3 opens a binary WAL payload. It is never '{', the first byte
// of a v2 JSON payload.
const walTagV3 = 3

// Binary WAL record kinds.
const (
	walKindReportsV3 = 1
	walKindCloseV3   = 2
)

// maxWALRecord caps one record's payload. Anything claiming to be
// larger is garbage (a torn or corrupt length header) — the cap keeps a
// hostile length field from allocating unbounded memory during replay
// and fuzzing.
const maxWALRecord = 1 << 24

// walFrameHeader is the fixed frame prefix: uint32 LE payload length,
// uint32 LE CRC32C of the payload.
const walFrameHeader = 8

// minRequestBytes is the smallest encoding of one WAL report: four
// one-byte varints.
const minRequestBytes = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encoder appends binary primitives to buf.
type encoder struct{ buf []byte }

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int)     { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *encoder) float(f float64) {
	e.uint(bits.ReverseBytes64(math.Float64bits(f)))
}

func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// length writes a slice length as len+1, or 0 for a nil slice.
func (e *encoder) length(n int, isNil bool) {
	if isNil {
		e.uint(0)
		return
	}
	e.uint(uint64(n) + 1)
}

func (e *encoder) floats(s []float64) {
	e.length(len(s), s == nil)
	for _, f := range s {
		e.float(f)
	}
}

func (e *encoder) floats2(s [][]float64) {
	e.length(len(s), s == nil)
	for _, r := range s {
		e.floats(r)
	}
}

func (e *encoder) floats3(s [][][]float64) {
	e.length(len(s), s == nil)
	for _, r := range s {
		e.floats2(r)
	}
}

// appendSnapshot appends env to dst as a binary generation in the
// current layout under env.FormatVersion, ending in the CRC32C trailer.
// env.Checksum is not read; the input is not mutated.
func appendSnapshot(dst []byte, env *Envelope) []byte {
	e := encoder{buf: append(dst, genMagic...)}
	e.int(env.FormatVersion)
	e.str(env.Algorithm)
	e.int(env.Slot)
	e.buf = binary.AppendVarint(e.buf, env.Ingested)
	e.uint(env.WalSeq)
	e.floats3(env.Rows)
	e.bool(env.Controller != nil)
	if s := env.Controller; s != nil {
		e.stream(s)
	}
	return binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(e.buf[len(dst):], castagnoli))
}

func (e *encoder) stream(s *online.StreamSnapshot) {
	e.str(s.Algorithm)
	e.int(s.Slot)
	e.length(len(s.Trajectory), s.Trajectory == nil)
	for _, d := range s.Trajectory {
		e.floats2(d.X)
		e.floats3(d.Y)
	}
	e.float(s.RelaxedCost)
	e.floats2(s.PrevAvgX)
	e.floats2(s.PrevX)
	e.int(s.CapacityDrops)
	e.int(s.BandwidthRepairs)
	e.length(len(s.FaultBudgets), s.FaultBudgets == nil)
	for _, k := range slices.Sorted(maps.Keys(s.FaultBudgets)) {
		e.int(k)
		e.int(s.FaultBudgets[k])
	}
	e.length(len(s.Versions), s.Versions == nil)
	for i := range s.Versions {
		e.version(&s.Versions[i])
	}
}

func (e *encoder) version(v *online.VersionSnapshot) {
	e.int(v.Version)
	e.int(v.Tau)
	e.floats2(v.VirtualPrev)
	e.floats3(v.WarmMu)
	e.int(v.MuFrom)
	e.int(v.MuTo)
	e.length(len(v.XA), v.XA == nil)
	for _, x := range v.XA {
		e.floats2(x)
	}
	e.length(len(v.YA), v.YA == nil)
	for _, y := range v.YA {
		e.floats3(y)
	}
	e.int(v.Stats.Solves)
	e.int(v.Stats.DualIters)
	e.int(v.Stats.Degraded)
	e.int(v.Stats.Retries)
	e.int(v.Stats.Replans)
}

// decoder reads binary primitives from buf. The first failure sticks in err
// and every later read returns a zero value, so a damaged input ends
// every length-driven loop at once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: decode: "+format, args...)
	}
}

// uint reads a canonical uvarint: an encoding with a redundant zero
// high byte is rejected, so each value has exactly one accepted form.
func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return v
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || d.buf[n-1] == 0 {
		d.fail("malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int64() int64 {
	u := d.uint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (d *decoder) int() int {
	x := d.int64()
	if int64(int(x)) != x {
		d.fail("integer %d overflows int", x)
		return 0
	}
	return int(x)
}

func (d *decoder) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uint()))
}

func (d *decoder) bool() bool {
	switch d.uint() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bool is neither 0 nor 1")
	return false
}

func (d *decoder) str() string {
	n := d.uint()
	if n > uint64(len(d.buf)) {
		d.fail("string of %d bytes, %d left", n, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// length reads a len+1 slice length; isNil reports a nil slice. Every
// element takes at least one byte, so a length beyond the bytes left is
// rejected before anything is allocated.
func (d *decoder) length() (n int, isNil bool) {
	v := d.uint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.buf)) {
		d.fail("length %d, %d bytes left", v-1, len(d.buf))
		return 0, true
	}
	return int(v - 1), false
}

func (d *decoder) floats() []float64 {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = d.float()
	}
	return s
}

func (d *decoder) floats2() [][]float64 {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	s := make([][]float64, n)
	for i := range s {
		s[i] = d.floats()
	}
	return s
}

func (d *decoder) floats3() [][][]float64 {
	n, isNil := d.length()
	if isNil {
		return nil
	}
	s := make([][][]float64, n)
	for i := range s {
		s[i] = d.floats2()
	}
	return s
}

// decodeSnapshot parses and verifies a generation of either format:
// checksum, format version gate and the presence of the controller
// block. Arbitrary or damaged bytes return an error; they never panic.
// The envelope's Checksum is the one the file stores.
func decodeSnapshot(data []byte) (*Envelope, error) {
	var env *Envelope
	var err error
	if len(data) > 0 && data[0] == '{' {
		env, err = decodeSnapshotJSON(data)
	} else {
		env, err = decodeSnapshotBinary(data)
	}
	if err != nil {
		return nil, err
	}
	if env.Controller == nil {
		return nil, fmt.Errorf("serve: snapshot carries no controller state")
	}
	return env, nil
}

// decodeSnapshotBinary checks the CRC32C trailer before decoding
// anything, then decodes the fields in encoding order. A format-3
// generation keeps FormatVersion 3 in the returned envelope.
func decodeSnapshotBinary(data []byte) (*Envelope, error) {
	if len(data) < len(genMagic)+4 || !bytes.HasPrefix(data, genMagic) {
		return nil, fmt.Errorf("serve: not a snapshot generation (%d bytes)", len(data))
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(body):])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("serve: snapshot checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	d := decoder{buf: body[len(genMagic):]}
	env := &Envelope{FormatVersion: d.int(), Checksum: sum}
	if d.err == nil && env.FormatVersion != SnapshotFormatVersion && env.FormatVersion != iteratesFormatVersion {
		return nil, fmt.Errorf("serve: snapshot has format version %d, this build reads %d, %d and %d",
			env.FormatVersion, jsonFormatVersion, iteratesFormatVersion, SnapshotFormatVersion)
	}
	env.Algorithm = d.str()
	env.Slot = d.int()
	env.Ingested = d.int64()
	env.WalSeq = d.uint()
	env.Rows = d.floats3()
	if d.bool() {
		env.Controller = d.stream(env.FormatVersion)
	}
	if d.err == nil && len(d.buf) != 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	return env, nil
}

func (d *decoder) stream(format int) *online.StreamSnapshot {
	s := &online.StreamSnapshot{Algorithm: d.str(), Slot: d.int()}
	if n, isNil := d.length(); !isNil {
		s.Trajectory = make(model.Trajectory, n)
		for i := range s.Trajectory {
			s.Trajectory[i].X = d.floats2()
			s.Trajectory[i].Y = d.floats3()
		}
	}
	s.RelaxedCost = d.float()
	s.PrevAvgX = d.floats2()
	s.PrevX = d.floats2()
	s.CapacityDrops = d.int()
	s.BandwidthRepairs = d.int()
	if n, isNil := d.length(); !isNil {
		s.FaultBudgets = make(map[int]int, n)
		for i, prev := 0, 0; i < n; i++ {
			k := d.int()
			if i > 0 && k <= prev {
				d.fail("fault budget keys not ascending")
			}
			s.FaultBudgets[k], prev = d.int(), k
		}
	}
	if n, isNil := d.length(); !isNil {
		s.Versions = make([]online.VersionSnapshot, n)
		for i := range s.Versions {
			d.version(&s.Versions[i], format)
		}
	}
	return s
}

func (d *decoder) version(v *online.VersionSnapshot, format int) {
	v.Version = d.int()
	v.Tau = d.int()
	v.VirtualPrev = d.floats2()
	v.WarmMu = d.floats3()
	v.MuFrom = d.int()
	v.MuTo = d.int()
	if format == iteratesFormatVersion {
		d.bool()    // workspace bound
		d.int()     // decision time
		d.int()     // first slot
		d.int()     // end slot
		d.floats2() // initial plan
		d.floats2() // P2 iterates
	}
	if n, isNil := d.length(); !isNil {
		v.XA = make([]model.CachePlan, n)
		for i := range v.XA {
			v.XA[i] = d.floats2()
		}
	}
	if n, isNil := d.length(); !isNil {
		v.YA = make([]model.LoadPlan, n)
		for i := range v.YA {
			v.YA[i] = d.floats3()
		}
	}
	v.Stats.Solves = d.int()
	v.Stats.DualIters = d.int()
	v.Stats.Degraded = d.int()
	v.Stats.Retries = d.int()
	v.Stats.Replans = d.int()
}

// decodeSnapshotJSON reads a v2 generation. Its checksum is CRC32C over
// the file's raw bytes with exactly the Checksum member cut out, which
// is the v2 writer's canonical encoding. Verifying the bytes themselves,
// not a re-marshal of the decoded value, also rejects what decoding
// would normalise away: a bit flip that changes a key's case, inserted
// whitespace, an unknown member.
func decodeSnapshotJSON(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: parse snapshot: %w", err)
	}
	if env.FormatVersion != jsonFormatVersion {
		return nil, fmt.Errorf("serve: JSON snapshot has format version %d, this build reads JSON at %d",
			env.FormatVersion, jsonFormatVersion)
	}
	if err := verifyChecksum(data, env.Checksum); err != nil {
		return nil, err
	}
	return &env, nil
}

// rowsKey opens the Rows member of a v2 generation. Its first
// occurrence is always the top-level member: everything before it is an
// integer or the Algorithm string, and a JSON string cannot hold an
// unescaped '"'. The Checksum member, when present, sits directly in
// front of it (struct field order).
var rowsKey = []byte(`,"rows":`)

// verifyChecksum checks that a v2 generation carries the Checksum
// member for sum directly in front of its first Rows member and that
// CRC32C over the bytes around that member equals sum. encoding/json
// writes the member as `,"checksum":N`, and nothing when sum is zero
// (the field is omitempty).
func verifyChecksum(data []byte, sum uint32) error {
	var member []byte
	if sum != 0 {
		member = strconv.AppendUint([]byte(`,"checksum":`), uint64(sum), 10)
	}
	at := bytes.Index(data, rowsKey)
	if at < len(member) || !bytes.Equal(data[at-len(member):at], member) {
		return fmt.Errorf("serve: snapshot checksum member %08x not in front of rows", sum)
	}
	got := crc32.Update(0, castagnoli, data[:at-len(member)])
	got = crc32.Update(got, castagnoli, data[at:])
	if got != sum {
		return fmt.Errorf("serve: snapshot checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	return nil
}

// appendWALFrame appends one framed v3 record to dst: length, CRC32C,
// binary payload.
func appendWALFrame(dst []byte, rec walRecord) ([]byte, error) {
	var kind uint64
	switch rec.Kind {
	case walKindReports:
		kind = walKindReportsV3
	case walKindClose:
		kind = walKindCloseV3
	default:
		return dst, fmt.Errorf("serve: wal record %d has unknown kind %q", rec.Seq, rec.Kind)
	}
	start := len(dst)
	e := encoder{buf: append(dst, make([]byte, walFrameHeader)...)}
	e.buf = append(e.buf, walTagV3)
	e.uint(rec.Seq)
	e.uint(kind)
	e.int(rec.Slot)
	e.uint(uint64(len(rec.Reqs)))
	for _, r := range rec.Reqs {
		e.int(r.SBS)
		e.int(r.Class)
		e.int(r.Content)
		e.float(r.Count)
	}
	payload := e.buf[start+walFrameHeader:]
	if len(payload) > maxWALRecord {
		return dst, fmt.Errorf("serve: wal record of %d bytes exceeds the %d cap", len(payload), maxWALRecord)
	}
	binary.LittleEndian.PutUint32(e.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[start+4:], crc32.Checksum(payload, castagnoli))
	return e.buf, nil
}

// decodeWALPayload decodes one CRC-checked frame payload, JSON (v2) or
// binary (v3) by its first byte.
func decodeWALPayload(payload []byte) (rec walRecord, ok bool) {
	switch payload[0] {
	case '{':
		return rec, json.Unmarshal(payload, &rec) == nil
	case walTagV3:
	default:
		return rec, false
	}
	d := decoder{buf: payload[1:]}
	rec.Seq = d.uint()
	switch d.uint() {
	case walKindReportsV3:
		rec.Kind = walKindReports
	case walKindCloseV3:
		rec.Kind = walKindClose
	default:
		return rec, false
	}
	rec.Slot = d.int()
	n := d.uint()
	if n > uint64(len(d.buf)/minRequestBytes) {
		return rec, false
	}
	if n > 0 {
		rec.Reqs = make([]Request, n)
		for i := range rec.Reqs {
			rec.Reqs[i] = Request{SBS: d.int(), Class: d.int(), Content: d.int(), Count: d.float()}
		}
	}
	return rec, d.err == nil && len(d.buf) == 0
}

// decodeWALBuffer walks frames from the start of data and returns every
// record up to the first bad frame, plus the byte offset where the good
// prefix ends. It never returns an error and never panics: a truncated
// header, an absurd length, a CRC mismatch or an undecodable payload all
// just terminate the walk — that is the torn-tail tolerance the
// append-only write path guarantees is safe (frames are written strictly
// in order, so damage can only be a suffix; recovery decides whether a
// short prefix is tolerable).
func decodeWALBuffer(data []byte) (recs []walRecord, goodLen int) {
	off := 0
	for {
		if len(data)-off < walFrameHeader {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxWALRecord || n > len(data)-off-walFrameHeader {
			return recs, off
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+walFrameHeader : off+walFrameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off
		}
		rec, ok := decodeWALPayload(payload)
		if !ok {
			return recs, off
		}
		recs = append(recs, rec)
		off += walFrameHeader + n
	}
}
