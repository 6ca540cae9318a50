package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"

	"edgecache/internal/online"
	"edgecache/internal/trace"
)

// midHorizonEnvelope drives a durable-less CHC controller through five
// slots of a real trace and returns its envelope.
func midHorizonEnvelope(t *testing.T) *Envelope {
	t.Helper()
	base := testInstance(t)
	tr := trace.Generate(base.Demand, 19)
	c, err := New(context.Background(), base, Config{Online: online.CHC(4, 2), EstimatorFloor: -1})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 5; slot++ {
		ingestSlot(t, c, tr, slot)
		if _, err := c.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return c.Snapshot()
}

// filler sets every exported field reachable from a value to a
// distinct non-zero value, so a field the codec drops or confuses with a
// neighbour decodes differently. Slice and map fields of structs follow
// the mode (filled, nil or empty); inside a slice, a slice element
// cycles through nil, empty and filled, so every nesting level carries
// both variants. Floats cycle through the bit patterns a float codec
// can get wrong — −0, a subnormal, the largest finite value — between
// ordinary values.
type filler struct {
	t    *testing.T
	mode string // "filled", "nil" or "empty"
	next int
}

func (f *filler) float() float64 {
	f.next++
	switch f.next % 5 {
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return math.MaxFloat64
	}
	return float64(f.next) / 7
}

func (f *filler) fill(v reflect.Value, field bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		f.next++
		v.SetInt(int64(f.next))
	case reflect.Uint32, reflect.Uint64:
		f.next++
		v.SetUint(uint64(f.next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		f.next++
		v.SetString(fmt.Sprintf("s%d", f.next))
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), false)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i), true)
			}
		}
	case reflect.Slice:
		structs := v.Type().Elem().Kind() == reflect.Struct
		if field && !structs && f.mode != "filled" {
			if f.mode == "empty" {
				v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			}
			return
		}
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			switch {
			case s.Index(i).Kind() == reflect.Slice && i == 0:
			case s.Index(i).Kind() == reflect.Slice && i == 1:
				s.Index(i).Set(reflect.MakeSlice(v.Type().Elem(), 0, 0))
			default:
				f.fill(s.Index(i), false)
			}
		}
		v.Set(s)
	case reflect.Map:
		if field && f.mode != "filled" {
			if f.mode == "empty" {
				v.Set(reflect.MakeMap(v.Type()))
			}
			return
		}
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 4; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k, false)
			f.fill(e, false)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		f.t.Fatalf("filler: no rule for %s; extend the filler and the codec", v.Type())
	}
}

// filledEnvelope returns an envelope whose every field the filler set,
// under the current format version.
func filledEnvelope(t *testing.T, mode string) *Envelope {
	env := &Envelope{}
	(&filler{t: t, mode: mode}).fill(reflect.ValueOf(env).Elem(), false)
	env.FormatVersion = SnapshotFormatVersion
	return env
}

// TestSnapshotCodecRoundTrip pins the v3 generation codec. For envelopes
// with every field of Envelope, StreamSnapshot, VersionSnapshot and
// VersionStats set (filled, nil and empty variants) and for a real
// mid-horizon CHC envelope: encoding leaves its input untouched,
// decoding returns the input with the stored checksum filled in, and
// re-encoding the decoded envelope — map iteration order varying
// between runs, appended behind a prefix into a reused buffer — gives
// the same bytes. A field added to one of the four
// types without codec support fails here.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	small := func(env Envelope) func(*testing.T) *Envelope {
		return func(*testing.T) *Envelope {
			e := env
			e.FormatVersion = SnapshotFormatVersion
			e.Algorithm = "RHC(w=2)"
			e.Controller = &online.StreamSnapshot{Algorithm: "RHC(w=2)", Slot: 1}
			return &e
		}
	}
	cases := map[string]func(*testing.T) *Envelope{
		"filled":           func(t *testing.T) *Envelope { return filledEnvelope(t, "filled") },
		"nil-fields":       func(t *testing.T) *Envelope { return filledEnvelope(t, "nil") },
		"empty-fields":     func(t *testing.T) *Envelope { return filledEnvelope(t, "empty") },
		"genesis-walSeq-0": small(Envelope{Rows: [][][]float64{}}),
		"walSeq":           small(Envelope{Slot: 1, Ingested: 9, WalSeq: 41, Rows: [][][]float64{{{0, 1.5}}}}),
		"nil-rows":         small(Envelope{}),
		"mid-horizon-chc":  midHorizonEnvelope,
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			in, want := build(t), build(t)
			if name == "filled" && len(in.Controller.FaultBudgets) < 3 {
				t.Fatal("filled envelope carries fewer than 3 fault budgets")
			}
			data := appendSnapshot(nil, in)
			if !reflect.DeepEqual(in, want) {
				t.Fatal("appendSnapshot mutated its input")
			}
			got, err := decodeSnapshot(data)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			want.Checksum = binary.LittleEndian.Uint32(data[len(data)-4:])
			if !reflect.DeepEqual(want, got) {
				t.Fatal("decoded envelope differs from the encoded one")
			}
			buf := []byte("prefix")
			for i := 0; i < 8; i++ {
				buf = appendSnapshot(buf[:6], got)
				if !bytes.Equal(buf[6:], data) {
					t.Fatalf("re-encoding %d differs from the first encoding", i)
				}
			}
		})
	}
}

// TestDecodeSnapshotRejectsDamagedV3 checks that every strict prefix and
// every single-bit flip of a binary generation fails to decode, for a
// format-4 generation and for the read-only format-3 one in
// testdata/format3-state, and that a length field claiming more than the
// bytes left fails even under a valid checksum.
func TestDecodeSnapshotRejectsDamagedV3(t *testing.T) {
	v3, err := os.ReadFile("testdata/format3-state/snap.000005.json")
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string][]byte{
		"format-4": appendSnapshot(nil, filledEnvelope(t, "filled")),
		"format-3": v3,
	}
	for name, data := range gens {
		if _, err := decodeSnapshot(data); err != nil {
			t.Fatalf("%s: undamaged generation: %v", name, err)
		}
		for n := 0; n < len(data); n++ {
			if _, err := decodeSnapshot(data[:n]); err == nil {
				t.Fatalf("%s: prefix of %d of %d bytes decoded", name, n, len(data))
			}
		}
		flipped := append([]byte(nil), data...)
		for i := range flipped {
			for bit := 0; bit < 8; bit++ {
				flipped[i] ^= 1 << bit
				if _, err := decodeSnapshot(flipped); err == nil {
					t.Fatalf("%s: flip of bit %d in byte %d decoded", name, bit, i)
				}
				flipped[i] ^= 1 << bit
			}
		}
	}
	for _, body := range oversizedLengthBodies() {
		if _, err := decodeSnapshot(withCRC(body)); err == nil {
			t.Fatalf("oversized length field decoded: % x", body)
		}
	}
}

// withCRC appends the v3 CRC32C trailer to a generation body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// oversizedLengthBodies returns v3 generation bodies whose Algorithm
// string or Rows slice length exceeds the bytes that follow it.
func oversizedLengthBodies() [][]byte {
	head := binary.AppendVarint(append([]byte(nil), genMagic...), SnapshotFormatVersion)
	str := binary.AppendUvarint(append([]byte(nil), head...), 1<<40)
	rows := append(append([]byte(nil), head...), 0, 0, 0, 0) // "", slot, ingested, walSeq
	rows = binary.AppendUvarint(rows, 1<<40)
	return [][]byte{append(str, 'x'), append(rows, 0, 0)}
}

// TestDecodeSnapshotRejectsNormalisedMutations pins that the checksum
// covers the raw bytes: a key whose case a bit flip changed, inserted
// whitespace and an inserted unknown member all still parse to the
// same envelope, and all must fail verification.
func TestDecodeSnapshotRejectsNormalisedMutations(t *testing.T) {
	data, err := os.ReadFile("testdata/compactok-state/snap.000005.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("unmutated generation: %v", err)
	}
	mutations := []struct {
		name     string
		old, new string
	}{
		{"key-bit-flip", `"slot":5,`, `"Slot":5,`},
		{"whitespace", `"slot":5,`, `"slot": 5,`},
		{"unknown-key", `"slot":5,`, `"slot":5,"extra":1,`},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := bytes.Replace(data, []byte(m.old), []byte(m.new), 1)
			if bytes.Equal(mutated, data) || !json.Valid(mutated) {
				t.Fatal("mutation did not produce a different valid JSON document")
			}
			if _, err := decodeSnapshot(mutated); err == nil {
				t.Fatal("mutated generation passed verification")
			}
		})
	}
}
