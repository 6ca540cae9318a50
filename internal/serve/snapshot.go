package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"edgecache/internal/online"
)

// Envelope is the on-disk snapshot: the controller state plus the
// realised demand rows of the closed slots (the stream snapshot carries
// no demand of its own — the estimator and the restored windows
// recompute from this prefix). Encoded by codec.go in the binary format
// SnapshotFormatVersion; float64 values round-trip bit for bit. The JSON
// tags describe the read-only version-2 encoding.
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
	// Checksum is the CRC32C a decoded generation stored: in a binary
	// generation the trailer over every preceding byte, in a version-2
	// JSON one the sum over the file's bytes with this member cut out. A
	// bit flip anywhere in the file fails verification and recovery falls
	// back to the previous generation. Encoding ignores it.
	Checksum uint32 `json:"checksum,omitempty"`
	// Rows[t][n] is the realised flat (class, content) rate row of slot
	// t at SBS n.
	Rows       [][][]float64          `json:"rows"`
	Controller *online.StreamSnapshot `json:"controller"`
}

// SaveSnapshot writes the envelope to path atomically and durably:
// encode (with checksum), write to a temp file in the same directory,
// fsync, rename, fsync the parent directory. A crash mid-save leaves
// the previous snapshot intact; a reader never observes a partial file;
// the temp file is removed on every error path.
func SaveSnapshot(path string, env *Envelope) error {
	return writeFileAtomic(path, appendSnapshot(nil, env))
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
