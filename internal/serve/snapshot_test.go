package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"edgecache/internal/online"
	"edgecache/internal/trace"
)

// twoMarshalEncode is the reference encoding encodeSnapshot must
// reproduce byte for byte: marshal with the checksum zeroed, checksum
// those bytes, marshal again with the checksum set. It also returns the
// checksum.
func twoMarshalEncode(t *testing.T, env *Envelope) ([]byte, uint32) {
	t.Helper()
	e := *env
	e.Checksum = 0
	canonical, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	e.Checksum = crc32.Checksum(canonical, castagnoli)
	data, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	return data, e.Checksum
}

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

// zeroChecksumAlgorithm returns a 48-letter Algorithm name over {a, c}
// for which env's canonical encoding has CRC32C 0, so encodeSnapshot
// takes its no-member branch. CRC32C is affine over GF(2) in the message
// bits, and 'a' and 'c' differ in one bit, so the name is the solution
// of a 32-equation linear system in the 48 letter choices.
func zeroChecksumAlgorithm(t *testing.T, env *Envelope) string {
	t.Helper()
	const letters = 48
	name := []byte(strings.Repeat("a", letters))
	crcOf := func(alg []byte) uint32 {
		e := *env
		e.Algorithm, e.Checksum = string(alg), 0
		data, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		return crc32.Checksum(data, castagnoli)
	}
	base := crcOf(name)
	// Each basis row is a CRC change reachable by flipping the letters in
	// flips; reduce `base` against the basis to find the flips that
	// cancel it.
	type row struct {
		delta uint32
		flips uint64
	}
	var basis []row
	for i := 0; i < letters; i++ {
		flipped := append([]byte(nil), name...)
		flipped[i] = 'c'
		r := row{crcOf(flipped) ^ base, 1 << i}
		for _, b := range basis {
			if r.delta^b.delta < r.delta {
				r.delta, r.flips = r.delta^b.delta, r.flips^b.flips
			}
		}
		if r.delta != 0 {
			basis = append(basis, r)
		}
	}
	want := row{base, 0}
	for _, b := range basis {
		if want.delta^b.delta < want.delta {
			want.delta, want.flips = want.delta^b.delta, want.flips^b.flips
		}
	}
	if want.delta != 0 {
		t.Fatal("no zero-checksum algorithm name over these letters")
	}
	for i := 0; i < letters; i++ {
		if want.flips&(1<<i) != 0 {
			name[i] = 'c'
		}
	}
	if crcOf(name) != 0 {
		t.Fatal("solved algorithm name does not zero the checksum")
	}
	return string(name)
}

// TestEncodeSnapshotMatchesTwoMarshalEncoding pins the one-pass codec:
// encodeSnapshot's bytes equal the two-marshal reference, and decoding
// them returns the envelope with its checksum filled in.
func TestEncodeSnapshotMatchesTwoMarshalEncoding(t *testing.T) {
	mid := midHorizonEnvelope(t)
	small := &online.StreamSnapshot{Algorithm: "RHC(w=2)", Slot: 1}
	cases := []struct {
		name string
		env  *Envelope
	}{
		{"genesis-walSeq-0", &Envelope{FormatVersion: SnapshotFormatVersion, Algorithm: "RHC(w=2)",
			Rows: [][][]float64{}, Controller: small}},
		{"walSeq", &Envelope{FormatVersion: SnapshotFormatVersion, Algorithm: "RHC(w=2)", Slot: 1, Ingested: 9,
			WalSeq: 41, Rows: [][][]float64{{{0, 1.5}}}, Controller: small}},
		{"rows-key-in-algorithm", &Envelope{FormatVersion: SnapshotFormatVersion, Algorithm: `x,"rows":[1],\"q"`,
			Slot: 1, WalSeq: 3, Rows: [][][]float64{{{2}}}, Controller: small}},
		{"nil-rows", &Envelope{FormatVersion: SnapshotFormatVersion, Algorithm: "RHC(w=2)", Controller: small}},
		{"mid-horizon-chc", mid},
	}
	zero := &Envelope{FormatVersion: SnapshotFormatVersion, Slot: 1, WalSeq: 5,
		Rows: [][][]float64{{{1}}}, Controller: small}
	zero.Algorithm = zeroChecksumAlgorithm(t, zero)
	cases = append(cases, struct {
		name string
		env  *Envelope
	}{"checksum-0", zero})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := *tc.env
			got, err := encodeSnapshot(tc.env)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, *tc.env) {
				t.Fatal("encodeSnapshot mutated its input")
			}
			want, sum := twoMarshalEncode(t, tc.env)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding differs from the two-marshal reference:\n got %.200s\nwant %.200s", got, want)
			}
			env, err := decodeSnapshot(got)
			if err != nil {
				t.Fatalf("decode own encoding: %v", err)
			}
			before.Checksum = sum
			if !reflect.DeepEqual(&before, env) {
				t.Fatal("decoded envelope differs from the encoded one")
			}
		})
	}
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
