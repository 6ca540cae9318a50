package online

import (
	"context"
	"fmt"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// StreamSnapshot is the complete serialisable state of a Stream between
// slots — everything a restarted controller needs to continue the run
// bit-for-bit. The restart-equivalence contract (DESIGN.md §13): a Stream
// restored from a snapshot over the same instance, forecaster and
// configuration commits exactly the remaining trajectory (and counter
// increments) of the uninterrupted run, provided SlotBudget is zero.
//
// What is carried and what deliberately is not:
//
//   - Results-affecting cross-window state is carried per version: the μ
//     multipliers of the last window that produced any (the only
//     cross-window warm start), the committed actions of the open and
//     future slots (a closed slot's actions are dropped once its decision
//     is in Trajectory), the solve lattice position τ, and the
//     solver-effort counters. The fault schedule's consumed attempt
//     budgets ride along so a restored run does not re-inject
//     already-fired solver faults.
//
//   - No solver workspace is carried: every window solve borrows one
//     from core.Solve's pool and rebinds it from scratch, so none holds
//     anything a later solve reads. The forecaster needs no state of its
//     own because every shipped Forecaster is a pure function of the
//     (snapshotted) demand tensor.
//
// The snapshot is plain data: any encoding that keeps float64 values
// exactly restores it (package serve's durable store writes a binary
// one). Demand rows are NOT included — the serving layer owns the
// tensor and snapshots the realised rows alongside (package serve).
//
// Durability layering (DESIGN.md §14): a StreamSnapshot only ever
// describes slot-boundary state — Stream has no mid-slot state to carry,
// because demand accumulates outside it until CloseSlot. The serving
// layer exploits that: its snapshot generations embed this struct as the
// watermark ("everything up to the last slot close") and replay their
// report WAL on top of it to rebuild the open slot. Nothing here needs
// to know about the WAL; idempotent replay works precisely because
// restoring this snapshot and re-running CloseSlot is deterministic.
type StreamSnapshot struct {
	// Algorithm is the configuration's Name(), checked on restore so a
	// snapshot is never resumed under a different controller.
	Algorithm string `json:"algorithm"`
	// Slot is the open slot at snapshot time; slots [0, Slot) are closed.
	Slot int `json:"slot"`
	// Trajectory holds the committed decisions of the closed slots.
	Trajectory model.Trajectory `json:"trajectory"`

	// Combine-stage state: the relaxed objective accumulated so far, the
	// previous slot's averaged and committed placements (the replacement
	// cost and churn baselines), and the repair counters.
	RelaxedCost      float64         `json:"relaxedCost"`
	PrevAvgX         model.CachePlan `json:"prevAvgX"`
	PrevX            model.CachePlan `json:"prevX"`
	CapacityDrops    int             `json:"capacityDrops"`
	BandwidthRepairs int             `json:"bandwidthRepairs"`

	// FaultBudgets are the armed schedule's remaining per-slot solver
	// fault attempts (nil when the run is fault-free).
	FaultBudgets map[int]int `json:"faultBudgets,omitempty"`

	Versions []VersionSnapshot `json:"versions"`
}

// VersionSnapshot is one FHC version's between-windows state.
type VersionSnapshot struct {
	Version     int             `json:"version"`
	Tau         int             `json:"tau"`
	VirtualPrev model.CachePlan `json:"virtualPrev"`

	// μ warm start: the multipliers of the last window that produced
	// any, aligned to absolute slots [MuFrom, MuTo).
	WarmMu [][][]float64 `json:"warmMu,omitempty"`
	MuFrom int           `json:"muFrom"`
	MuTo   int           `json:"muTo"`

	// Committed per-slot actions (absolute slots) and solver-effort
	// counters. Only the open and future slots carry an action; null =
	// not yet committed by this version, or already closed.
	XA    []model.CachePlan `json:"xa"`
	YA    []model.LoadPlan  `json:"ya"`
	Stats VersionStats      `json:"stats"`
}

// Snapshot captures the stream's state. It is only meaningful between
// CloseSlot calls (which is the only time callers can observe a Stream);
// the result shares no memory with the live stream.
func (s *Stream) Snapshot() *StreamSnapshot {
	snap := &StreamSnapshot{
		Algorithm:        s.cfg.Name(),
		Slot:             s.cur,
		Trajectory:       cloneTrajectory(s.traj),
		RelaxedCost:      s.comb.relaxed,
		PrevAvgX:         clonePlan(s.comb.prevAvgX),
		PrevX:            clonePlan(s.comb.prevX),
		CapacityDrops:    s.comb.capSBS,
		BandwidthRepairs: s.comb.bwRepairs,
		FaultBudgets:     s.armed.Snapshot(),
		Versions:         make([]VersionSnapshot, len(s.versions)),
	}
	for i, vs := range s.versions {
		snap.Versions[i] = vs.snapshot()
	}
	return snap
}

func (vs *versionState) snapshot() VersionSnapshot {
	sn := VersionSnapshot{
		Version:     vs.v,
		Tau:         vs.tau,
		VirtualPrev: clonePlan(vs.virtualPrev),
		WarmMu:      cloneMu(vs.warmMu),
		MuFrom:      vs.muFrom,
		MuTo:        vs.muTo,
		Stats:       vs.stats,
		XA:          make([]model.CachePlan, len(vs.xa)),
		YA:          make([]model.LoadPlan, len(vs.ya)),
	}
	for t, x := range vs.xa {
		if x != nil {
			sn.XA[t] = x.Clone()
		}
	}
	for t, y := range vs.ya {
		if y != nil {
			sn.YA[t] = y.Clone()
		}
	}
	return sn
}

// RestoreStream reconstructs a Stream from a snapshot over the same
// instance, forecaster and configuration the snapshot was taken under.
// The demand tensor must hold the realised rows of the closed slots
// (restore re-runs no solves for them, but future windows forecast from
// them). See StreamSnapshot for the equivalence contract.
func RestoreStream(ctx context.Context, in *model.Instance, pred workload.Forecaster, cfg Config, snap *StreamSnapshot) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if snap == nil {
		return nil, fmt.Errorf("online: nil snapshot")
	}
	s, err := newStream(in, pred, cfg)
	if err != nil {
		return nil, err
	}
	if name := s.cfg.Name(); name != snap.Algorithm {
		return nil, fmt.Errorf("online: snapshot taken under %s, restoring under %s", snap.Algorithm, name)
	}
	if snap.Slot < 0 || snap.Slot > in.T {
		return nil, fmt.Errorf("online: snapshot slot %d outside [0, %d]", snap.Slot, in.T)
	}
	if len(snap.Versions) != len(s.versions) {
		return nil, fmt.Errorf("online: snapshot has %d versions, config needs %d", len(snap.Versions), len(s.versions))
	}

	s.cur = snap.Slot
	s.armed.Restore(snap.FaultBudgets)
	for v, vs := range s.versions {
		if err := vs.restore(&snap.Versions[v], snap.Slot); err != nil {
			return nil, err
		}
	}
	s.comb.relaxed = snap.RelaxedCost
	s.comb.capSBS = snap.CapacityDrops
	s.comb.bwRepairs = snap.BandwidthRepairs
	if snap.PrevAvgX != nil {
		s.comb.prevAvgX = clonePlan(snap.PrevAvgX)
	}
	if snap.PrevX != nil {
		s.comb.prevX = clonePlan(snap.PrevX)
	}
	s.traj = append(s.traj, cloneTrajectory(snap.Trajectory)...)
	if len(s.traj) != s.cur {
		return nil, fmt.Errorf("online: snapshot trajectory covers %d slots, open slot is %d", len(s.traj), s.cur)
	}

	if !s.Done() {
		if err := s.advance(ctx); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restore loads one version's snapshot.
//
// Actions for the closed slots [0, open) are skipped. Generations
// written before CloseSlot dropped them still carry them, and a
// restored stream must hold what the unkilled one holds.
func (vs *versionState) restore(sn *VersionSnapshot, open int) error {
	if sn.Version != vs.v {
		return fmt.Errorf("online: version snapshot %d restored as %d", sn.Version, vs.v)
	}
	vs.tau = sn.Tau
	if sn.VirtualPrev != nil {
		vs.virtualPrev = clonePlan(sn.VirtualPrev)
	}
	vs.warmMu = cloneMu(sn.WarmMu)
	vs.muFrom, vs.muTo = sn.MuFrom, sn.MuTo
	vs.stats = sn.Stats
	if len(sn.XA) != len(vs.xa) || len(sn.YA) != len(vs.ya) {
		return fmt.Errorf("online: version %d snapshot covers %d slots, horizon is %d", vs.v, len(sn.XA), len(vs.xa))
	}
	for t := open; t < len(sn.XA); t++ {
		if x := sn.XA[t]; x != nil {
			vs.xa[t] = x.Clone()
		}
		if y := sn.YA[t]; y != nil {
			vs.ya[t] = y.Clone()
		}
	}
	return nil
}

func clonePlan(x model.CachePlan) model.CachePlan {
	if x == nil {
		return nil
	}
	return x.Clone()
}

func cloneMu(mu [][][]float64) [][][]float64 {
	if mu == nil {
		return nil
	}
	out := make([][][]float64, len(mu))
	for t := range mu {
		out[t] = make([][]float64, len(mu[t]))
		for n := range mu[t] {
			out[t][n] = append([]float64(nil), mu[t][n]...)
		}
	}
	return out
}

func cloneTrajectory(traj model.Trajectory) model.Trajectory {
	out := make(model.Trajectory, len(traj))
	for t, dec := range traj {
		out[t] = model.SlotDecision{X: dec.X.Clone(), Y: dec.Y.Clone()}
	}
	return out
}
