package serve

import (
	"fmt"
	"io"
	"os"
	"time"

	"edgecache/internal/fault"
	"edgecache/internal/obs"
)

// Durability counters (DESIGN.md §14). Created on first use; zero-cost
// reads when metrics are disabled.
var (
	mWALAppends    = obs.Default.Counter("serve.wal_appends")
	mWALReplayed   = obs.Default.Counter("serve.wal_replayed")
	mWALTornTail   = obs.Default.Counter("serve.wal_torn_tail")
	mSnapFallbacks = obs.Default.Counter("serve.snapshot_fallbacks")
	mSnapCorrupt   = obs.Default.Counter("serve.snapshot_corrupt")
	mTicksMissed   = obs.Default.Counter("serve.ticks_missed")
	mPanics        = obs.Default.Counter("serve.handler_panics")
)

// FsyncPolicy selects when the WAL flushes appended records to stable
// storage. Close markers and snapshot generations are always synced
// regardless of policy, so the loss window of the relaxed policies is
// bounded to report records inside the open slot.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: an acknowledged report is
	// durable before the acknowledgement leaves the process. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs at most once per fsyncPeriod: a crash can lose
	// up to one period of acknowledged open-slot reports.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs report appends (the OS flushes eventually): a
	// crash can lose any acknowledged reports of the open slot.
	FsyncOff FsyncPolicy = "off"
)

// fsyncPeriod is the FsyncInterval period.
const fsyncPeriod = 100 * time.Millisecond

// ParseFsyncPolicy maps the -wal-fsync flag values; "" selects
// FsyncAlways.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "", FsyncAlways:
		return FsyncAlways, nil
	case FsyncInterval:
		return FsyncInterval, nil
	case FsyncOff:
		return FsyncOff, nil
	}
	return "", fmt.Errorf("serve: unknown fsync policy %q (want always, interval or off)", s)
}

// WAL record kinds.
const (
	walKindReports = "reports" // an acknowledged Ingest batch
	walKindClose   = "close"   // a slot-close marker
)

// walRecord is one framed WAL entry. Seq is globally monotonic across
// segment rotations, starting at 1; recovery rejects duplicates, gaps
// and reordering. The JSON tags are the read-only version-2 payload.
type walRecord struct {
	Seq  uint64    `json:"seq"`
	Kind string    `json:"kind"`
	Slot int       `json:"slot"`
	Reqs []Request `json:"reqs,omitempty"`
}

// readWALSegment reads and decodes one segment file. torn reports
// whether undecodable bytes trail the good prefix; goodLen is the byte
// length of that prefix (the truncation point for reopening the final
// segment in append mode).
func readWALSegment(path string) (recs []walRecord, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("serve: read wal segment: %w", err)
	}
	recs, n := decodeWALBuffer(data)
	return recs, int64(n), n < len(data), nil
}

// wal is an open append-mode segment file.
type wal struct {
	f        *os.File
	path     string
	policy   FsyncPolicy
	lastSync time.Time
	faults   *fault.DiskFaults
	frame    []byte // reused encode buffer
}

// openWALSegment opens (creating if absent) a segment for appending.
// When goodLen ≥ 0 and the file is longer, it is truncated there first —
// recovery passes the decoded good-prefix length so a torn tail is cut
// off before new frames land after it (frames appended beyond garbage
// would be unreachable forever).
func openWALSegment(path string, goodLen int64, policy FsyncPolicy, faults *fault.DiskFaults) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: stat wal segment: %w", err)
	}
	if goodLen >= 0 && st.Size() > goodLen {
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: truncate wal torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: sync wal truncation: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: seek wal segment: %w", err)
	}
	return &wal{f: f, path: path, policy: policy, faults: faults}, nil
}

// append frames and writes one record. force overrides the fsync policy
// (close markers must be durable before the snapshot that covers them).
// A fault-injected torn append writes only a prefix of the frame and
// then fires the simulated crash — from that point the in-memory
// controller state must be discarded, exactly as after SIGKILL.
func (w *wal) append(rec walRecord, force bool) error {
	frame, err := appendWALFrame(w.frame[:0], rec)
	if err != nil {
		return err
	}
	w.frame = frame
	if keep, tear := w.faults.WALTear(len(frame)); tear {
		if keep > 0 {
			_, _ = w.f.Write(frame[:keep])
		}
		_ = w.f.Sync() // make the torn prefix what a recovery will see
		return w.faults.Crash()
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("serve: append wal record: %w", err)
	}
	mWALAppends.Inc()
	switch {
	case force, w.policy == FsyncAlways, w.policy == "":
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("serve: sync wal: %w", err)
		}
		w.lastSync = time.Now()
	case w.policy == FsyncInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= fsyncPeriod {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("serve: sync wal: %w", err)
			}
			w.lastSync = now
		}
	}
	return nil
}

// close syncs and closes the segment file.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return fmt.Errorf("serve: sync wal on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("serve: close wal: %w", closeErr)
	}
	return nil
}
