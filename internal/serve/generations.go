package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"edgecache/internal/fault"
)

// State-directory layout (DESIGN.md §14). Generation g is the snapshot
// taken when slot g became the open slot (so gen g covers the closed
// slots [0, g)); segment g is the WAL file opened right after gen g was
// published and receives every record from slot g onward until the next
// rotation. Sequence numbers run monotonically across segments. Both
// file kinds use the codec.go format; generations keep the ".json" suffix
// of the version-2 JSON encoding, so one name serves both formats and a
// state dir upgraded in place needs no rename.
//
//	state/
//	  snap.000016.json   generation 16 (open slot 16 at save time)
//	  snap.000017.json   generation 17 — the newest
//	  wal.000016         records for slot 16 (kept: gen 16 needs them)
//	  wal.000017         the live segment, appended to
const (
	genPrefix = "snap."
	genSuffix = ".json"
	segPrefix = "wal."
)

func genPath(dir string, g int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", genPrefix, g, genSuffix))
}

func segPath(dir string, g int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d", segPrefix, g))
}

// parseStateName extracts the number from a generation or segment file
// name given its prefix/suffix.
func parseStateName(name, prefix, suffix string) (int, bool) {
	if len(name) <= len(prefix)+len(suffix) || name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	g := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		g = g*10 + int(c-'0')
	}
	return g, true
}

// listStateDir enumerates the generation and segment numbers present in
// dir, each sorted ascending. Temp files and foreign names are ignored.
func listStateDir(dir string) (gens, segs []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: list state dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if g, ok := parseStateName(e.Name(), genPrefix, genSuffix); ok {
			gens = append(gens, g)
		} else if g, ok := parseStateName(e.Name(), segPrefix, ""); ok {
			segs = append(segs, g)
		}
	}
	sort.Ints(gens)
	sort.Ints(segs)
	return gens, segs, nil
}

// syncDir fsyncs a directory so a just-renamed (or just-removed) entry
// survives a power cut — rename atomicity alone does not imply rename
// durability.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: open dir for sync: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("serve: sync dir: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("serve: close dir: %w", closeErr)
	}
	return nil
}

// writeFileAtomic publishes data at path via temp file, fsync, rename,
// parent-directory fsync. The temp file is removed on every error path;
// a crash at any byte leaves either the old file or the new one, never a
// mix, and the published name survives a power cut.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: %s %s: %w", step, path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: publish %s: %w", path, err)
	}
	return syncDir(dir)
}

// saveGeneration publishes env as generation env.Slot in dir, encoding
// it into *buf, which is reused from one publish to the next. A
// fault-injected save puts the mutated bytes (torn prefix or flipped
// bit) directly at the final path and fires the simulated crash — the
// write-then-rename discipline cannot be torn by the process itself, so
// the injection models what a power cut mid-rename or silent media
// corruption leaves behind.
func saveGeneration(dir string, env *Envelope, buf *[]byte, faults *fault.DiskFaults) error {
	*buf = appendSnapshot((*buf)[:0], env)
	data := *buf
	path := genPath(dir, env.Slot)
	if mutated, crash := faults.SnapshotFault(data); crash {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			return fmt.Errorf("serve: write faulted snapshot: %w", err)
		}
		_ = syncDir(dir)
		return faults.Crash()
	}
	return writeFileAtomic(path, data)
}

// loadGeneration reads and fully verifies generation g: checksum,
// format version, envelope decode, controller block.
func loadGeneration(dir string, g int) (*Envelope, error) {
	data, err := os.ReadFile(genPath(dir, g))
	if err != nil {
		return nil, fmt.Errorf("serve: read generation %06d: %w", g, err)
	}
	env, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("serve: generation %06d: %w", g, err)
	}
	if env.Slot != g {
		return nil, fmt.Errorf("serve: generation %06d carries slot %d", g, env.Slot)
	}
	return env, nil
}

// pruneStateDir deletes generations beyond the newest keep and every
// WAL segment no surviving generation can need. Segment s holds the
// close markers for slots [s, s′) where s′ is the next existing segment;
// recovery from the oldest kept generation G replays closes ≥ G, so s is
// dead only when s′ ≤ G. The live (final) segment is never deleted —
// its records run past every generation's watermark. Prune failures are
// returned but harmless: stale files only cost disk and are re-pruned
// on the next rotation.
func pruneStateDir(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	gens, segs, err := listStateDir(dir)
	if err != nil {
		return err
	}
	if len(gens) > keep {
		for _, g := range gens[:len(gens)-keep] {
			if err := os.Remove(genPath(dir, g)); err != nil {
				return fmt.Errorf("serve: prune generation %06d: %w", g, err)
			}
		}
		gens = gens[len(gens)-keep:]
	}
	if len(gens) == 0 || len(segs) == 0 {
		return nil
	}
	oldest := gens[0]
	removed := false
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= oldest {
			if err := os.Remove(segPath(dir, segs[i])); err != nil {
				return fmt.Errorf("serve: prune wal segment %06d: %w", segs[i], err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}
