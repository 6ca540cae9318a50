package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// Request is one ingested demand report: Count requests (default 1) of
// class Class for content Content at SBS SBS, arriving in the open slot.
type Request struct {
	SBS     int     `json:"sbs"`
	Class   int     `json:"class"`
	Content int     `json:"content"`
	Count   float64 `json:"count,omitempty"`
}

// ErrBackpressure is returned by Ingest when the open slot's report
// buffer is saturated (Config.PendingLimit); the HTTP layer maps it to
// 429 with a Retry-After of one slot.
var ErrBackpressure = errors.New("serve: open-slot report buffer is full")

// ErrClosed is returned by mutating methods after Close.
var ErrClosed = errors.New("serve: controller closed")

// RequestError rejects one report of an Ingest batch; the whole batch is
// refused and nothing is applied (ingestion is all-or-nothing, so a WAL
// record always describes a fully applied batch).
type RequestError struct {
	Index  int    `json:"index"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: request %d: %s %s", e.Index, e.Field, e.Reason)
}

// Config tunes a Controller beyond the topology instance.
type Config struct {
	// Online is the controller configuration (algorithm, window,
	// commitment, retry policy, …). Its Faults field arms solver faults;
	// topology faults must be materialised into the instance by the
	// caller (cmd/jocserve does both from one schedule).
	Online online.Config
	// EstimatorAlpha is the EWMA weight of the newest slot (0 selects
	// workload.DefaultEstimatorAlpha).
	EstimatorAlpha float64
	// EstimatorFloor is the clamped-decay floor (< 0 selects
	// workload.DefaultEstimatorFloor; 0 disables).
	EstimatorFloor float64
	// SnapshotPath, when non-empty, persists a snapshot envelope there
	// (atomic rename) after every closed slot; Open restores from it.
	// Legacy single-file mode: open-slot reports are not durable.
	// Mutually exclusive with StateDir.
	SnapshotPath string
	// StateDir, when non-empty, enables the crash-safe durability layer
	// (DESIGN.md §14): every acknowledged Ingest batch is written to an
	// append-only WAL before the acknowledgement, snapshots are kept as
	// checksummed generations rotated at slot close, and Open recovers
	// from the newest verifiable generation plus an idempotent WAL
	// replay — extending restart equivalence from "kill at slot
	// boundaries" to "kill -9 at any byte".
	StateDir string
	// WALFsync is the WAL flush policy ("" selects FsyncAlways).
	WALFsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (0 selects 100ms).
	FsyncEvery time.Duration
	// SnapKeep is how many snapshot generations to retain (0 selects 3;
	// minimum 2 — corruption fallback needs a predecessor).
	SnapKeep int
	// PendingLimit caps the number of report entries bookable into one
	// open slot; Ingest returns ErrBackpressure beyond it. 0 = unlimited.
	PendingLimit int64
	// DiskFaults arms torn-write/bit-flip injection on the durability
	// files (chaos harnesses only).
	DiskFaults *fault.DiskFaults
	// Faults is the full fault schedule. Its prediction-corruption arm is
	// hooked into the forecast feed here (reading the live tensor; the
	// realised rates are never touched) and its solver faults should also
	// ride in Online.Faults; topology injectors must be materialised into
	// the instance by the caller (MaterializeFaults).
	Faults *fault.Schedule
}

func (cfg *Config) snapKeep() int {
	if cfg.SnapKeep <= 0 {
		return 3
	}
	if cfg.SnapKeep < 2 {
		return 2
	}
	return cfg.SnapKeep
}

// Controller is the serving-side state machine around an online.Stream:
// it owns the live demand tensor (filled slot by slot from ingested
// requests), the oracle-free forecaster reading it, and the snapshot/WAL
// persistence. All methods are safe for concurrent use; Tick serialises
// against ingestion so a slot's rates are final when the stream closes
// it.
type Controller struct {
	mu   sync.Mutex
	base *model.Instance // caller's topology; its demand tensor is ignored
	in   *model.Instance // live instance: base with the realised tensor
	live *model.Demand
	cfg  Config

	stream  *online.Stream
	pending [][]float64 // [n][m*K+k] accumulated counts for the open slot
	total   int64       // requests ingested over the controller's lifetime

	// Durability state (StateDir mode).
	wal            *wal
	walErr         error  // sticky: any WAL write failure poisons the controller
	lastSeq        uint64 // last appended WAL sequence number
	genBuf         []byte // generation encode buffer, reused across publishes
	walSeqClosed   uint64 // sequence of the last close marker (envelope watermark)
	ingestedClosed int64  // total at that close (envelope Ingested)
	openReports    int64  // report entries booked into the open slot
	closed         bool
}

// New starts a fresh controller over the topology of base (its demand
// tensor is replaced by an empty realised tensor — a live controller has
// no future to peek at). The start-up windows are solved immediately, so
// the slot-0 plan is published on return. New never touches disk; use
// Open for the persistent modes.
func New(ctx context.Context, base *model.Instance, cfg Config) (*Controller, error) {
	c, f, err := prepare(base, cfg)
	if err != nil {
		return nil, err
	}
	c.stream, err = online.NewStream(ctx, c.in, f, cfg.Online)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Open restores the controller from persistent state when any exists and
// starts fresh otherwise — so a killed-and-restarted service re-runs the
// same command line and continues where it stopped. With StateDir set
// this is full crash recovery: newest verifiable snapshot generation
// (falling back past torn or bit-flipped ones), idempotent WAL replay
// beyond its watermark, torn-tail truncation, and a repair snapshot when
// the newest generation was missing or damaged.
func Open(ctx context.Context, base *model.Instance, cfg Config) (*Controller, error) {
	if cfg.StateDir != "" {
		if cfg.SnapshotPath != "" {
			return nil, fmt.Errorf("serve: Config.StateDir and Config.SnapshotPath are mutually exclusive")
		}
		return openDurable(ctx, base, cfg)
	}
	if cfg.SnapshotPath == "" {
		return New(ctx, base, cfg)
	}
	env, err := LoadSnapshot(cfg.SnapshotPath)
	if err != nil {
		return nil, err
	}
	if env == nil {
		return New(ctx, base, cfg)
	}
	return Restore(ctx, base, cfg, env)
}

// openDurable is Open's StateDir path: plan recovery from disk, rebuild
// the in-memory controller, replay the WAL, reopen it for appending, and
// repair the generation chain if the newest one was lost.
func openDurable(ctx context.Context, base *model.Instance, cfg Config) (*Controller, error) {
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create state dir: %w", err)
	}
	rs, err := recoverState(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	var c *Controller
	if rs.env == nil {
		c, err = New(ctx, base, cfg)
	} else {
		c, err = Restore(ctx, base, cfg, rs.env)
	}
	if err != nil {
		return nil, err
	}
	if rs.env != nil {
		c.walSeqClosed = rs.env.WalSeq
	}
	c.ingestedClosed = c.total

	// Idempotent replay: every record past the watermark, in sequence.
	// Reports re-validate (they were validated before their WAL append,
	// so a failure here means disk-level damage the CRC missed) and
	// closes re-run the deterministic slot commit.
	for _, rec := range rs.records {
		switch rec.Kind {
		case walKindReports:
			if rec.Slot != c.stream.Slot() {
				return nil, fmt.Errorf("serve: wal record %d reports for slot %d but slot %d is open", rec.Seq, rec.Slot, c.stream.Slot())
			}
			if rerr := c.validateLocked(rec.Reqs); rerr != nil {
				return nil, fmt.Errorf("serve: wal record %d: %w", rec.Seq, rerr)
			}
			c.applyLocked(rec.Reqs)
		case walKindClose:
			if rec.Slot != c.stream.Slot() {
				return nil, fmt.Errorf("serve: wal record %d closes slot %d but slot %d is open", rec.Seq, rec.Slot, c.stream.Slot())
			}
			if _, err := c.closeSlotLocked(ctx); err != nil {
				return nil, fmt.Errorf("serve: replay close of slot %d: %w", rec.Slot, err)
			}
			c.walSeqClosed = rec.Seq
			c.ingestedClosed = c.total
		default:
			return nil, fmt.Errorf("serve: wal record %d has unknown kind %q", rec.Seq, rec.Kind)
		}
	}
	mWALReplayed.Add(int64(len(rs.records)))
	c.lastSeq = rs.lastSeq

	seg := rs.appendSeg
	segLen := rs.appendLen
	if rs.genesis {
		seg, segLen = 0, 0
	}
	w, err := openWALSegment(segPath(cfg.StateDir, seg), segLen, cfg.WALFsync, cfg.FsyncEvery, cfg.DiskFaults)
	if err != nil {
		return nil, err
	}
	c.wal = w

	// Repair the generation chain: at genesis publish generation 0, and
	// after a fallback (or a close replayed past the newest generation)
	// re-publish the generation the crash destroyed — so the next startup
	// does not depend on the same fallback chain again.
	if rs.genesis || rs.fallbacks > 0 || c.stream.Slot() != rs.gen {
		if err := saveGeneration(cfg.StateDir, c.envelopeLocked(), &c.genBuf, cfg.DiskFaults); err != nil {
			c.wal.close()
			return nil, err
		}
	}
	if err := pruneStateDir(cfg.StateDir, cfg.snapKeep()); err != nil {
		c.wal.close()
		return nil, err
	}
	return c, nil
}

// Restore reconstructs a controller from a snapshot envelope taken under
// the same topology and configuration: the realised rows are replayed
// into a fresh tensor and the stream state restored, after which the
// controller is indistinguishable from one that was never stopped
// (online.RestoreStream's restart-equivalence contract).
func Restore(ctx context.Context, base *model.Instance, cfg Config, env *Envelope) (*Controller, error) {
	c, f, err := prepare(base, cfg)
	if err != nil {
		return nil, err
	}
	if len(env.Rows) != env.Controller.Slot {
		return nil, fmt.Errorf("serve: snapshot carries %d realised rows for slot %d", len(env.Rows), env.Controller.Slot)
	}
	for t, row := range env.Rows {
		if len(row) != base.N {
			return nil, fmt.Errorf("serve: snapshot row %d covers %d SBSs, want %d", t, len(row), base.N)
		}
		for n, flat := range row {
			if len(flat) != base.Classes[n]*base.K {
				return nil, fmt.Errorf("serve: snapshot row %d SBS %d has %d entries, want %d",
					t, n, len(flat), base.Classes[n]*base.K)
			}
			for i, v := range flat {
				if v != 0 {
					c.live.Set(t, n, i/base.K, i%base.K, v)
				}
			}
		}
	}
	c.total = env.Ingested
	c.stream, err = online.RestoreStream(ctx, c.in, f, cfg.Online, env.Controller)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// prepare builds the live instance, tensor and forecaster shared by New
// and Restore.
func prepare(base *model.Instance, cfg Config) (*Controller, workload.Forecaster, error) {
	if err := base.Validate(); err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	live := model.NewDemand(base.T, base.Classes, base.K)
	in := *base
	in.Demand = live
	est, err := workload.NewOnlineEstimator(live, cfg.EstimatorAlpha, cfg.EstimatorFloor)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	c := &Controller{
		base:    base,
		in:      &in,
		live:    live,
		cfg:     cfg,
		pending: make([][]float64, base.N),
	}
	for n := range c.pending {
		c.pending[n] = make([]float64, base.Classes[n]*base.K)
	}
	return c, workload.Corrupt(est, cfg.Faults.Corruptor(live)), nil
}

// validateLocked checks a batch without applying anything: index ranges
// and finite, non-negative counts. Validation is two-phase so a rejected
// batch leaves no partial state behind.
func (c *Controller) validateLocked(reqs []Request) *RequestError {
	for i, r := range reqs {
		if r.SBS < 0 || r.SBS >= c.base.N {
			return &RequestError{Index: i, Field: "sbs", Reason: fmt.Sprintf("%d outside [0, %d)", r.SBS, c.base.N)}
		}
		if r.Class < 0 || r.Class >= c.base.Classes[r.SBS] {
			return &RequestError{Index: i, Field: "class", Reason: fmt.Sprintf("%d outside [0, %d)", r.Class, c.base.Classes[r.SBS])}
		}
		if r.Content < 0 || r.Content >= c.base.K {
			return &RequestError{Index: i, Field: "content", Reason: fmt.Sprintf("%d outside [0, %d)", r.Content, c.base.K)}
		}
		if math.IsNaN(r.Count) || math.IsInf(r.Count, 0) {
			return &RequestError{Index: i, Field: "count", Reason: fmt.Sprintf("%g is not finite", r.Count)}
		}
		if r.Count < 0 {
			return &RequestError{Index: i, Field: "count", Reason: fmt.Sprintf("%g < 0", r.Count)}
		}
	}
	return nil
}

// applyLocked folds a validated batch into the open slot's accumulators.
func (c *Controller) applyLocked(reqs []Request) {
	for _, r := range reqs {
		count := r.Count
		if count == 0 {
			count = 1
		}
		c.pending[r.SBS][r.Class*c.base.K+r.Content] += count
		c.total++
		c.openReports++
	}
}

// Ingest accumulates a batch of requests into the open slot's empirical
// rates. It returns the slot the batch was booked under. The batch is
// all-or-nothing: validation happens before any state changes, and in
// StateDir mode the batch is durably logged to the WAL before it is
// applied — an acknowledged batch survives kill -9 at any later byte.
func (c *Controller) Ingest(reqs []Request) (slot int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if c.walErr != nil {
		return 0, fmt.Errorf("serve: wal unhealthy, ingestion refused: %w", c.walErr)
	}
	if c.stream.Done() {
		return c.stream.Slot(), fmt.Errorf("serve: horizon complete, ingestion closed")
	}
	if rerr := c.validateLocked(reqs); rerr != nil {
		return 0, rerr
	}
	if c.cfg.PendingLimit > 0 && c.openReports+int64(len(reqs)) > c.cfg.PendingLimit {
		return 0, fmt.Errorf("%w: %d booked, %d offered, limit %d", ErrBackpressure, c.openReports, len(reqs), c.cfg.PendingLimit)
	}
	t := c.stream.Slot()
	if c.wal != nil {
		rec := walRecord{Seq: c.lastSeq + 1, Kind: walKindReports, Slot: t, Reqs: reqs}
		if err := c.wal.append(rec, false); err != nil {
			c.walErr = err
			return 0, err
		}
		c.lastSeq++
	}
	c.applyLocked(reqs)
	return t, nil
}

// closeSlotLocked flushes the open slot's accumulated counts into the
// live tensor and commits the slot through the stream. Shared by Tick
// and WAL replay — both sides of the restart-equivalence contract run
// exactly this code.
func (c *Controller) closeSlotLocked(ctx context.Context) (model.SlotDecision, error) {
	t := c.stream.Slot()
	for n, flat := range c.pending {
		for i, v := range flat {
			if v != 0 {
				c.live.Set(t, n, i/c.base.K, i%c.base.K, v)
				flat[i] = 0
			}
		}
	}
	dec, err := c.stream.CloseSlot(ctx)
	if err == nil {
		// The slot is closed in every mode — backpressure lifts here, not
		// in Tick's persistence tail.
		c.openReports = 0
	}
	return dec, err
}

// TickResult is one closed slot's outcome.
type TickResult struct {
	// Slot is the slot that was closed.
	Slot int `json:"slot"`
	// X and Y are the committed decision.
	X model.CachePlan `json:"x"`
	Y model.LoadPlan  `json:"y"`
	// NextSlot is the now-open slot; Done reports horizon completion.
	NextSlot int  `json:"nextSlot"`
	Done     bool `json:"done"`
}

// Tick closes the open slot: the accumulated request counts become the
// slot's final empirical rates (requests per slot), the stream commits
// the slot's decision against them and advances, and — when configured —
// the state is persisted before Tick returns. In StateDir mode the
// durable ordering is: close marker appended and fsynced to the WAL
// (regardless of fsync policy), then the new generation published, then
// the WAL rotated and old state pruned; a crash between any two of those
// steps recovers to the identical post-Tick state by replaying the close
// marker from an older generation.
func (c *Controller) Tick(ctx context.Context) (*TickResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.walErr != nil {
		return nil, fmt.Errorf("serve: wal unhealthy, tick refused: %w", c.walErr)
	}
	if c.stream.Done() {
		return nil, fmt.Errorf("serve: horizon complete at slot %d", c.stream.Slot())
	}
	t := c.stream.Slot()
	dec, err := c.closeSlotLocked(ctx)
	if err != nil {
		return nil, err
	}
	if c.wal != nil {
		rec := walRecord{Seq: c.lastSeq + 1, Kind: walKindClose, Slot: t}
		if err := c.wal.append(rec, true); err != nil {
			// The in-memory stream advanced but the close is not durable:
			// continuing would let acknowledged state diverge from what a
			// recovery rebuilds. Poison the controller; /readyz goes red.
			c.walErr = err
			return nil, err
		}
		c.lastSeq++
		c.walSeqClosed = c.lastSeq
		c.ingestedClosed = c.total
		if err := c.saveAndRotateLocked(); err != nil {
			if errors.Is(err, fault.ErrCrash) {
				c.walErr = err
			}
			// A failed generation save (other than an injected crash) is
			// not fatal: the close marker is durable, so recovery from an
			// older generation replays it. The next Tick retries the save.
			return nil, err
		}
	} else if c.cfg.SnapshotPath != "" {
		if err := SaveSnapshot(c.cfg.SnapshotPath, c.envelopeLocked()); err != nil {
			return nil, err
		}
	}
	return &TickResult{
		Slot:     t,
		X:        dec.X,
		Y:        dec.Y,
		NextSlot: c.stream.Slot(),
		Done:     c.stream.Done(),
	}, nil
}

// saveAndRotateLocked publishes the boundary generation, rotates the WAL
// to the segment named after it, and prunes; c.mu must be held and the
// close marker must already be durable.
func (c *Controller) saveAndRotateLocked() error {
	env := c.envelopeLocked()
	if err := saveGeneration(c.cfg.StateDir, env, &c.genBuf, c.cfg.DiskFaults); err != nil {
		return err
	}
	if err := c.wal.close(); err != nil {
		return err
	}
	w, err := openWALSegment(segPath(c.cfg.StateDir, env.Slot), 0, c.cfg.WALFsync, c.cfg.FsyncEvery, c.cfg.DiskFaults)
	if err != nil {
		return err
	}
	c.wal = w
	return pruneStateDir(c.cfg.StateDir, c.cfg.snapKeep())
}

// envelopeLocked assembles the persistence envelope; c.mu must be held.
// An envelope always describes the last slot boundary: in StateDir mode
// Ingested and WalSeq come from the boundary bookkeeping so open-slot
// reports (which live in the WAL, not the envelope) are never counted as
// covered.
func (c *Controller) envelopeLocked() *Envelope {
	slot := c.stream.Slot()
	rows := make([][][]float64, slot)
	for t := 0; t < slot; t++ {
		rows[t] = make([][]float64, c.base.N)
		for n := 0; n < c.base.N; n++ {
			rows[t][n] = c.live.CopySlot(nil, t, n)
		}
	}
	env := &Envelope{
		FormatVersion: SnapshotFormatVersion,
		Algorithm:     c.cfg.Online.Name(),
		Slot:          slot,
		Ingested:      c.total,
		Rows:          rows,
		Controller:    c.stream.Snapshot(),
	}
	if c.cfg.StateDir != "" {
		env.Ingested = c.ingestedClosed
		env.WalSeq = c.walSeqClosed
	}
	return env
}

// Snapshot returns the controller's persistence envelope (deep copy).
func (c *Controller) Snapshot() *Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.envelopeLocked()
}

// Healthy returns nil while the durability layer is writable, and the
// sticky WAL error once any append failed — from then on Ingest and Tick
// refuse to run (acknowledging non-durable state would break the
// recovery contract) and /readyz reports the controller unready.
func (c *Controller) Healthy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.walErr
}

// Close releases the WAL. Idempotent and safe to race with in-flight
// calls; operations after Close return ErrClosed.
func (c *Controller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.wal != nil {
		return c.wal.close()
	}
	return nil
}

// Plan is the published decision for the open slot.
type Plan struct {
	Slot    int             `json:"slot"`
	Horizon int             `json:"horizon"`
	Done    bool            `json:"done"`
	X       model.CachePlan `json:"x,omitempty"`
	// Y is the provisional split; nil in reactive load mode (the final
	// split needs the slot's realised demand) and after completion.
	Y model.LoadPlan `json:"y,omitempty"`
}

// Plan returns the provisionally published decision for the open slot.
// The plans are deep copies, safe to hand to encoders.
func (c *Controller) Plan() Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, x, y := c.stream.Plan()
	p := Plan{Slot: slot, Horizon: c.base.T, Done: c.stream.Done()}
	if x != nil {
		p.X = x.Clone()
	}
	if y != nil {
		p.Y = y.Clone()
	}
	return p
}

// Stats are the controller's live counters.
type Stats struct {
	online.StreamStats
	Slot     int   `json:"slot"`
	Horizon  int   `json:"horizon"`
	Done     bool  `json:"done"`
	Ingested int64 `json:"ingested"`
}

// Stats returns the live counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		StreamStats: c.stream.Stats(),
		Slot:        c.stream.Slot(),
		Horizon:     c.base.T,
		Done:        c.stream.Done(),
		Ingested:    c.total,
	}
}

// Done reports whether every slot of the horizon has been closed.
func (c *Controller) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stream.Done()
}

// Trajectory returns a deep copy of the committed decisions so far.
func (c *Controller) Trajectory() model.Trajectory {
	c.mu.Lock()
	defer c.mu.Unlock()
	traj := c.stream.Trajectory()
	out := make(model.Trajectory, len(traj))
	for t, dec := range traj {
		out[t] = model.SlotDecision{X: dec.X.Clone(), Y: dec.Y.Clone()}
	}
	return out
}

// Result assembles the completed run (errors while slots remain open).
func (c *Controller) Result() (*online.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stream.Result()
}

// MaterializeFaults applies a schedule's topology injectors to base —
// the serving twin of sim.RunWith's materialisation — returning the
// effective instance to hand to New/Open. The corruption and solver
// arms of the same schedule ride in Config.Faults and
// Config.Online.Faults respectively.
func MaterializeFaults(base *model.Instance, sched *fault.Schedule) (*model.Instance, error) {
	if sched.Empty() {
		return base, nil
	}
	out, err := sched.Materialize(base, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return out, nil
}
