package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strconv"

	"edgecache/internal/online"
)

// SnapshotFormatVersion is the on-disk envelope format this build
// writes. Version 2 added the WalSeq watermark and the Checksum field;
// version-1 envelopes (pre-durability) are still read, without checksum
// verification. Bump on any incompatible change to Envelope or to
// online.StreamSnapshot; Load rejects foreign versions loudly instead of
// mis-restoring.
const SnapshotFormatVersion = 2

// Envelope is the on-disk snapshot: the controller state plus the
// realised demand rows of the closed slots (the stream snapshot carries
// no demand of its own — the estimator and the restored windows
// recompute from this prefix). Serialised as JSON; float64 values
// round-trip exactly through Go's shortest-representation encoding.
//
// An envelope always describes a slot boundary: Rows covers exactly the
// closed slots and Ingested counts exactly the reports folded into them.
// Open-slot reports are never inside an envelope — they live in the WAL
// past the watermark.
type Envelope struct {
	FormatVersion int    `json:"formatVersion"`
	Algorithm     string `json:"algorithm"`
	// Slot is the open slot at snapshot time; Rows covers [0, Slot).
	Slot     int   `json:"slot"`
	Ingested int64 `json:"ingested"`
	// WalSeq is the durability watermark: the sequence number of the last
	// WAL close marker whose effects this envelope captures. Recovery
	// replays records with Seq > WalSeq. Zero in legacy single-file mode
	// and at genesis.
	WalSeq uint64 `json:"walSeq,omitempty"`
	// Checksum is CRC32C over the envelope's canonical JSON with this
	// field zeroed, which is the file's bytes with this member cut out; a
	// bit flip anywhere in the file fails verification and recovery falls
	// back to the previous generation.
	Checksum uint32 `json:"checksum,omitempty"`
	// Rows[t][n] is the realised flat (class, content) rate row of slot
	// t at SBS n.
	Rows       [][][]float64          `json:"rows"`
	Controller *online.StreamSnapshot `json:"controller"`
}

// rowsKey opens the Rows member. Its first occurrence in an encoded
// envelope is always the top-level member: everything before it is an
// integer or the Algorithm string, and a JSON string cannot hold an
// unescaped '"'. The Checksum member, when present, sits directly in
// front of it (struct field order).
var rowsKey = []byte(`,"rows":`)

// checksumMember renders the Checksum member exactly as encoding/json
// writes it; zero renders as nothing, because the field is omitempty.
func checksumMember(sum uint32) []byte {
	if sum == 0 {
		return nil
	}
	return strconv.AppendUint([]byte(`,"checksum":`), uint64(sum), 10)
}

// encodeSnapshot marshals env once with its Checksum zeroed (the
// canonical encoding), computes CRC32C over those bytes and splices the
// Checksum member in front of Rows. The result is byte-identical to
// marshalling env with the checksum set. The input is not mutated.
func encodeSnapshot(env *Envelope) ([]byte, error) {
	e := *env
	e.Checksum = 0
	canonical, err := json.Marshal(&e)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal snapshot: %w", err)
	}
	member := checksumMember(crc32.Checksum(canonical, castagnoli))
	if member == nil {
		return canonical, nil
	}
	at := bytes.Index(canonical, rowsKey)
	data := make([]byte, 0, len(canonical)+len(member))
	data = append(data, canonical[:at]...)
	data = append(data, member...)
	return append(data, canonical[at:]...), nil
}

// decodeSnapshot parses and verifies an envelope: format version gate,
// checksum (format ≥ 2) and the presence of the controller block.
// Arbitrary or damaged bytes return an error; they never panic.
//
// The checksum is CRC32C over the file's raw bytes with exactly the
// Checksum member cut out, which is the writer's canonical encoding.
// Verifying the bytes themselves, not a re-marshal of the decoded
// value, also rejects what decoding would normalise away: a bit flip
// that changes a key's case, inserted whitespace, an unknown member.
func decodeSnapshot(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: parse snapshot: %w", err)
	}
	switch env.FormatVersion {
	case 1:
		// Pre-durability envelope: no checksum to verify.
	case SnapshotFormatVersion:
		if err := verifyChecksum(data, env.Checksum); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: snapshot has format version %d, this build reads %d",
			env.FormatVersion, SnapshotFormatVersion)
	}
	if env.Controller == nil {
		return nil, fmt.Errorf("serve: snapshot carries no controller state")
	}
	return &env, nil
}

// verifyChecksum checks that data carries the Checksum member for sum
// directly in front of its first Rows member and that CRC32C over the
// bytes around that member equals sum.
func verifyChecksum(data []byte, sum uint32) error {
	member := checksumMember(sum)
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

// SaveSnapshot writes the envelope to path atomically and durably:
// marshal (with checksum), write to a temp file in the same directory,
// fsync, rename, fsync the parent directory. A crash mid-save leaves
// the previous snapshot intact; a reader never observes a partial file;
// the temp file is removed on every error path.
func SaveSnapshot(path string, env *Envelope) error {
	data, err := encodeSnapshot(env)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// LoadSnapshot reads an envelope from path. A missing file returns
// (nil, nil) — the fresh-start case of Open; anything else that fails to
// parse, verify, or that carries a foreign format version is an error.
func LoadSnapshot(path string) (*Envelope, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read snapshot: %w", err)
	}
	env, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return env, nil
}
