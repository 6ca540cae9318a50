package online

import (
	"context"
	"errors"
	"fmt"

	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// Stream is the online controller: the staggered FHC versions
// (versionState) and the average/round/repair commit stage (combiner),
// driven one slot at a time. A live request stream closes its slots as
// they end; it is the engine of the control-plane service (package
// serve). Run is a Stream over a completed tensor: its versions run ahead
// over the whole horizon before the slots are closed in order.
//
// Protocol: the instance's demand tensor is filled externally (the slot's
// empirical rates must be final before CloseSlot). While slot t is open,
// Plan returns the provisionally published decision for it — the rounded
// average of the versions' committed placements, which is demand-
// independent, plus (in LoadPredicted mode) the clamped split without the
// bandwidth rescale, which is not. CloseSlot then finalises the decision
// against the realised row.
//
// Determinism: with a Forecaster that is a pure function of the truth
// prefix (workload.OnlineEstimator) or of (tau, from, to) alone
// (workload.Predictor), a Stream over a fully replayed trace commits the
// exact trajectory Run computes over the completed tensor — the versions
// run the identical window solves, merely interleaved differently with
// the commit stage. Versions consume shared solver-fault budgets lowest
// version first on both paths. SlotBudget is the one escape hatch:
// wall-clock deadlines are inherently non-reproducible, so
// restart-equivalent deployments leave it zero and bound work with
// Core.MaxIter instead.
type Stream struct {
	in   *model.Instance
	pred workload.Forecaster
	cfg  Config // defaulted

	versions []*versionState
	armed    *fault.Armed
	xa       [][]model.CachePlan
	ya       [][]model.LoadPlan
	comb     *combiner

	cur   int // open slot; slots [0, cur) are closed and committed
	traj  model.Trajectory
	planX model.CachePlan
	planY model.LoadPlan // nil in LoadReactive mode (needs realised demand)
}

// newStream checks the instance, predictor and configuration, arms the
// configuration's solver faults and allocates the versions and the
// combiner, with no slot closed and no window solved yet. It is the one
// constructor behind NewStream, RestoreStream and Run.
func newStream(in *model.Instance, pred workload.Forecaster, cfg Config) (*Stream, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if pred == nil {
		return nil, errors.New("online: nil predictor")
	}
	if pred.Truth() != in.Demand {
		return nil, errors.New("online: predictor truth is not the instance demand")
	}
	versions := cfg.Commitment
	if cfg.SingleVersion {
		versions = 1
	}
	s := &Stream{in: in, pred: pred, cfg: cfg, armed: cfg.Faults.Arm()}
	events := in.EventSlots()
	s.versions = make([]*versionState, versions)
	s.xa = make([][]model.CachePlan, versions)
	s.ya = make([][]model.LoadPlan, versions)
	for v := range s.versions {
		s.xa[v] = make([]model.CachePlan, in.T)
		s.ya[v] = make([]model.LoadPlan, in.T)
		s.versions[v] = newVersionState(in, pred, cfg, v, s.armed, events, s.xa[v], s.ya[v])
	}
	s.comb = newCombiner(in, cfg)
	s.traj = make(model.Trajectory, 0, in.T)
	return s, nil
}

// NewStream validates the configuration and solves the start-up windows:
// every version is advanced until it has committed an action for slot 0,
// and the provisional plan for slot 0 is published. Demand rows may still
// be all-zero at this point — a live controller forecasts slot 0 from the
// zero prior.
func NewStream(ctx context.Context, in *model.Instance, pred workload.Forecaster, cfg Config) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := newStream(in, pred, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.advance(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// advance steps every version, lowest first, until it has committed the
// open slot, then publishes the provisional plan for it.
func (s *Stream) advance(ctx context.Context) error {
	for _, vs := range s.versions {
		if err := vs.runTo(ctx, s.cur+1); err != nil {
			return err
		}
	}
	return s.publish()
}

// publish computes the provisionally published decision for the open
// slot from the versions' committed actions.
func (s *Stream) publish() error {
	t := s.cur
	if err := s.comb.average(t, s.xa, s.ya); err != nil {
		return err
	}
	x := model.NewCachePlan(s.in.N, s.in.K)
	s.comb.round.Round(s.in, t, s.comb.avgX, x, s.cfg.Rho)
	s.planX = x
	s.planY = nil
	if s.cfg.LoadMode == LoadPredicted {
		s.planY = provisionalLoad(s.in, x, s.comb.avgY)
	}
	return nil
}

// provisionalLoad is the demand-independent prefix of predictedLoad: zero
// the averaged split wherever the rounding dropped the item and clamp to
// [0, 1]. The bandwidth rescale needs the slot's realised demand, so the
// published provisional split defers it to commit time.
func provisionalLoad(in *model.Instance, x model.CachePlan, avgY model.LoadPlan) model.LoadPlan {
	y := avgY.Clone()
	for n := 0; n < in.N; n++ {
		for m := 0; m < in.Classes[n]; m++ {
			for k := 0; k < in.K; k++ {
				if x[n][k] < 0.5 {
					y[n][m][k] = 0
					continue
				}
				// Averaged iterates can stray marginally outside [0, 1]
				// (convex-solver tolerance), so clamp both bounds: a
				// surviving negative would violate eq. (11) in the
				// committed plan and corrupt the load sum driving the
				// bandwidth rescale of predictedLoad.
				if y[n][m][k] > 1 {
					y[n][m][k] = 1
				} else if y[n][m][k] < 0 {
					y[n][m][k] = 0
				}
			}
		}
	}
	return y
}

// Slot returns the open slot index: slots [0, Slot()) are closed and
// committed.
func (s *Stream) Slot() int { return s.cur }

// Horizon returns the instance's slot horizon T.
func (s *Stream) Horizon() int { return s.in.T }

// Done reports whether every slot of the horizon has been closed.
func (s *Stream) Done() bool { return s.cur >= s.in.T }

// Plan returns the provisionally published decision for the open slot.
// The split is nil in LoadReactive mode (it needs the realised demand)
// and after the horizon completes. The returned plans are live: callers
// must not mutate them.
func (s *Stream) Plan() (slot int, x model.CachePlan, y model.LoadPlan) {
	return s.cur, s.planX, s.planY
}

// Trajectory returns the committed decisions of the closed slots (live;
// read-only).
func (s *Stream) Trajectory() model.Trajectory { return s.traj }

// CloseSlot finalises the open slot: its demand row must be final (the
// slot's empirical arrival rates written into the instance's tensor). The
// slot's decision is committed against the realised row, the versions
// advance to cover the next slot, and its provisional plan is published.
func (s *Stream) CloseSlot(ctx context.Context) (model.SlotDecision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.Done() {
		return model.SlotDecision{}, fmt.Errorf("online: horizon complete at slot %d", s.cur)
	}
	t := s.cur
	// Re-average: identical values to the publish-time call (average is a
	// pure function of the versions' committed actions), re-run so the
	// commit below always consumes buffers for slot t even if a restore
	// or an out-of-band publish touched them.
	if err := s.comb.average(t, s.xa, s.ya); err != nil {
		return model.SlotDecision{}, err
	}
	dec, err := s.comb.commit(t)
	if err != nil {
		return model.SlotDecision{}, err
	}
	s.traj = append(s.traj, dec)
	// The versions' actions for slot t were read only by the combiner
	// while t was open; drop them so snapshots carry live state only.
	for v := range s.xa {
		s.xa[v][t], s.ya[v][t] = nil, nil
	}
	s.cur++
	if s.Done() {
		s.planX, s.planY = nil, nil
		return dec, nil
	}
	if err := s.advance(ctx); err != nil {
		return model.SlotDecision{}, err
	}
	return dec, nil
}

// StreamStats are a live controller's counters so far.
type StreamStats struct {
	VersionStats
	CapacityDrops    int     `json:"capacityDrops"`
	BandwidthRepairs int     `json:"bandwidthRepairs"`
	RelaxedCost      float64 `json:"relaxedCost"`
}

// Stats sums the versions' solver-effort counters and the commit-stage
// repair counters accumulated so far.
func (s *Stream) Stats() StreamStats {
	var st StreamStats
	for _, vs := range s.versions {
		st.Solves += vs.stats.Solves
		st.DualIters += vs.stats.DualIters
		st.Degraded += vs.stats.Degraded
		st.Retries += vs.stats.Retries
		st.Replans += vs.stats.Replans
	}
	st.CapacityDrops = s.comb.capSBS
	st.BandwidthRepairs = s.comb.bwRepairs
	st.RelaxedCost = s.comb.relaxed
	return st
}

// Result assembles the completed run into a Result, verifying the
// committed trajectory. It errors while slots remain open.
func (s *Stream) Result() (*Result, error) {
	if !s.Done() {
		return nil, fmt.Errorf("online: %d of %d slots still open", s.in.T-s.cur, s.in.T)
	}
	if err := s.in.CheckTrajectory(s.traj, 1e-6); err != nil {
		return nil, fmt.Errorf("online: committed trajectory infeasible: %w", err)
	}
	st := s.Stats()
	return &Result{
		Trajectory:     s.traj,
		RelaxedCost:    st.RelaxedCost,
		WindowSolves:   st.Solves,
		DualIterations: st.DualIters,
		Degraded:       st.Degraded,
		Retries:        st.Retries,
		Replans:        st.Replans,
	}, nil
}
