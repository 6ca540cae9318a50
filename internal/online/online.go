// Package online implements the paper's online controllers (§IV): Receding
// Horizon Control (RHC), Averaging Fixed Horizon Control (AFHC) and their
// generalisation Committed Horizon Control (CHC), all in the integer
// variants the paper introduces.
//
// All three share the Fixed Horizon Control building block: at decision
// time τ, solve the joint problem (Algorithm 1, package core) over the
// prediction window [τ, τ+w) using noisy demand forecasts, starting from
// the controller's committed placement at τ−1. They differ in commitment:
//
//   - RHC (Algorithm 2) re-solves every slot and commits only the first
//     action; it is CHC with commitment level r = 1.
//   - CHC (Algorithm 3) runs r staggered FHC versions, each committing r
//     consecutive slots per solve, and averages the r versions' actions at
//     every slot.
//   - AFHC is CHC with r = w.
//
// Averaged placements are fractional, so CHC/AFHC apply the paper's
// rounding policy: x = 1 iff the average ≥ ρ with ρ = (3−√5)/2 (the
// minimiser of the 2.62-approximation bound of Theorem 3), then y is
// zeroed wherever x = 0 (core.Rounder, which Algorithm 1 also uses for its
// ergodic candidate). Two repairs the paper leaves implicit are made
// explicit and documented in DESIGN.md: rounding can exceed the cache
// capacity (kept: top-C_n by average), and the committed load split can
// exceed the true bandwidth because each version budgeted against
// predicted demand (kept: proportional rescale).
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/parallel"
	"edgecache/internal/workload"
)

// Always-on controller metrics (atomic; read by -metrics, /debug/vars).
var (
	mWindowSolves = obs.Default.Counter("online.window_solves")
	mDualIters    = obs.Default.Counter("online.dual_iterations")
	mWindowTime   = obs.Default.Timer("online.window_solve")
	mCapDrops     = obs.Default.Counter("online.capacity_drops")
	mBWRepairs    = obs.Default.Counter("online.bandwidth_repairs")
	mDegraded     = obs.Default.Counter("solver.degraded")
	mReplans      = obs.Default.Counter("fault.replans")
	mRetries      = obs.Default.Counter("fault.retries")
	mWindowGapH   = obs.Default.Histogram("online.window_gap")
	mChurnH       = obs.Default.Histogram("online.slot_churn")
)

// LoadMode selects how the committed load split y is produced.
type LoadMode int

const (
	// LoadPredicted commits the (averaged, rounded-consistent) load split
	// computed from the prediction windows — the paper-literal behaviour.
	// The split is rescaled if true demand would exceed the bandwidth.
	LoadPredicted LoadMode = iota + 1
	// LoadReactive recomputes the optimal load split for the committed
	// placement against the realised demand of the slot. This models a
	// system whose request routing reacts at per-slot timescale while only
	// the cache is pre-positioned; it isolates prediction noise to the
	// caching decision.
	LoadReactive
)

// String names the mode.
func (m LoadMode) String() string {
	switch m {
	case LoadPredicted:
		return "predicted"
	case LoadReactive:
		return "reactive"
	default:
		return fmt.Sprintf("LoadMode(%d)", int(m))
	}
}

// FallbackPlanner plans a feasible trajectory for a window instance when
// a budgeted solve had to be abandoned with no usable iterate — the last
// rung of the degradation ladder. The window's demand tensor holds the
// predicted rates and its initial plan the controller's committed state,
// so a fallback needs no other context. Implementations must be cheap
// (they run inside an already-blown slot budget) and deterministic.
type FallbackPlanner func(ctx context.Context, win *model.Instance) (model.Trajectory, error)

// DefaultFallback is the paper-native degraded mode: the LRFU placement
// of §V-A (top-C contents by predicted request volume, per slot) with the
// reactive load split (the optimal split for that placement, package
// loadbalance). It is the ladder's bottom rung — rule-based, feasible by
// construction, and orders of magnitude cheaper than a window solve.
func DefaultFallback(ctx context.Context, win *model.Instance) (model.Trajectory, error) {
	return baseline.NewLRFU().Plan(ctx, win)
}

// RetryPolicy bounds the retry-with-backoff wrapper around each window
// solve — the first rung of failure handling, tried before the
// degradation ladder (best-so-far iterate → Fallback). Retries share the
// window's slot budget: the deadline context spans every attempt and the
// backoff sleeps between them, so retrying never outlives the slot.
// Context errors (cancellation, budget exhaustion) are never retried.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt. 0 selects
	// the default (2); negative disables retrying.
	Max int
	// Backoff is the sleep before the first retry (default 2ms).
	Backoff time.Duration
	// Factor multiplies the backoff after each retry (default 2).
	Factor float64
}

// Config describes one online controller.
type Config struct {
	// Window is the prediction horizon w ≥ 1.
	Window int
	// Commitment is the level r ∈ [1, Window]: 1 = RHC, Window = AFHC.
	Commitment int
	// Rho is the rounding threshold ρ ∈ (0, 1); 0 selects core.DefaultRho.
	Rho float64
	// LoadMode defaults to LoadPredicted.
	LoadMode LoadMode
	// Core configures the per-window Algorithm 1 solves. A zero value gets
	// window-appropriate defaults (fewer dual iterations than a full
	// offline solve; the μ warm start across overlapping windows makes up
	// the difference).
	Core core.Options
	// SingleVersion runs only version v = 0 instead of the r staggered
	// versions — plain Fixed Horizon Control, the classic baseline RHC
	// and AFHC generalise. No averaging occurs, so no rounding is needed.
	SingleVersion bool
	// SlotBudget bounds each window solve's wall-clock time — the
	// controller's per-slot compute deadline. When a solve overruns it the
	// controller degrades instead of erroring, walking the ladder
	// best-so-far iterate (finite duality gap) → Fallback, and emits a
	// solve_degraded event plus a solver.degraded counter increment.
	// 0 disables the budget (solves run to convergence or MaxIter).
	SlotBudget time.Duration
	// Fallback plans the degraded window when the budget expires before
	// any feasible iterate exists; nil selects DefaultFallback (the LRFU
	// placement with the reactive load split).
	Fallback FallbackPlanner
	// Retry bounds the in-budget retry of failed window solves; see
	// RetryPolicy. The zero value selects the defaults.
	Retry RetryPolicy
	// Faults, when non-nil, injects the schedule's solver-level faults
	// (fault.SolverFault clauses) into this run's window solves —
	// injected errors exercise the retry path, injected panics the
	// parallel supervisor. Topology faults (outages, degradation) and
	// prediction corruption do not act here: they are materialised into
	// the instance's overlay and the predictor by package sim before Run
	// ever sees them.
	Faults *fault.Schedule
	// Telemetry receives one window_solve event per FHC window solve and
	// one slot_decision event per committed slot (rounding decisions at
	// ρ, capacity/bandwidth repairs, cache churn). It is also forwarded
	// to the per-window Algorithm 1 solves, which then emit their own
	// solver_iteration events. Observational only; nil disables events.
	Telemetry *obs.Telemetry
}

// RHC returns the Receding Horizon Control configuration for window w.
func RHC(w int) Config { return Config{Window: w, Commitment: 1} }

// AFHC returns the Averaging Fixed Horizon Control configuration.
func AFHC(w int) Config { return Config{Window: w, Commitment: w} }

// CHC returns the Committed Horizon Control configuration with commitment
// level r.
func CHC(w, r int) Config { return Config{Window: w, Commitment: r} }

// FHC returns plain Fixed Horizon Control: solve every w slots, commit
// the whole window, no staggered averaging. It is the memoryless baseline
// of the RHC/AFHC literature; AFHC is exactly the average of w staggered
// copies of it.
func FHC(w int) Config { return Config{Window: w, Commitment: w, SingleVersion: true} }

// Name returns a short algorithm label ("RHC(w=10)", "CHC(w=10,r=5)", ...).
func (c Config) Name() string {
	switch {
	case c.SingleVersion:
		return fmt.Sprintf("FHC(w=%d)", c.Window)
	case c.Commitment <= 1:
		return fmt.Sprintf("RHC(w=%d)", c.Window)
	case c.Commitment >= c.Window:
		return fmt.Sprintf("AFHC(w=%d)", c.Window)
	default:
		return fmt.Sprintf("CHC(w=%d,r=%d)", c.Window, c.Commitment)
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.Window < 1 {
		return c, fmt.Errorf("online: window %d, want ≥ 1", c.Window)
	}
	if c.Commitment == 0 {
		c.Commitment = 1
	}
	if c.Commitment < 1 || c.Commitment > c.Window {
		return c, fmt.Errorf("online: commitment %d outside [1, %d]", c.Commitment, c.Window)
	}
	if c.Rho == 0 {
		c.Rho = core.DefaultRho
	}
	if c.Rho <= 0 || c.Rho >= 1 {
		return c, fmt.Errorf("online: rho %g outside (0, 1)", c.Rho)
	}
	if c.LoadMode == 0 {
		c.LoadMode = LoadPredicted
	}
	if c.LoadMode != LoadPredicted && c.LoadMode != LoadReactive {
		return c, fmt.Errorf("online: unknown load mode %d", int(c.LoadMode))
	}
	if c.SlotBudget < 0 {
		return c, fmt.Errorf("online: negative slot budget %v", c.SlotBudget)
	}
	if c.Core.MaxIter == 0 {
		c.Core.MaxIter = 25
	}
	if c.Core.Epsilon == 0 {
		c.Core.Epsilon = 1e-3
	}
	switch {
	case c.Retry.Max == 0:
		c.Retry.Max = 2
	case c.Retry.Max < 0:
		c.Retry.Max = 0
	}
	if c.Retry.Backoff <= 0 {
		c.Retry.Backoff = 2 * time.Millisecond
	}
	if c.Retry.Factor < 1 {
		c.Retry.Factor = 2
	}
	return c, nil
}

// Result is a completed online run.
type Result struct {
	// Trajectory is the committed, feasible decision sequence.
	Trajectory model.Trajectory
	// RelaxedCost is the objective value of the pre-rounding averaged
	// trajectory (fractional x is legal in the relaxed objective). It is
	// the C(X,Y)* of Theorem 3: the rounded trajectory's cost is provably
	// at most 2.62× this value, and tests verify the bound empirically.
	RelaxedCost float64
	// WindowSolves counts Algorithm 1 invocations across all versions.
	WindowSolves int
	// DualIterations sums the dual iterations over all window solves.
	DualIterations int
	// Degraded counts window solves that blew their SlotBudget and were
	// committed through the degradation ladder instead (best-so-far
	// iterate or fallback). Zero when no budget is set.
	Degraded int
	// Retries counts failed solve attempts that were retried in-budget
	// (fault.retries).
	Retries int
	// Replans counts commitments truncated at a topology event so the
	// post-event world could be re-solved immediately (fault.replans).
	Replans int
}

// Run executes the configured controller over the instance's horizon,
// reading demand forecasts from pred (whose truth tensor must be the
// instance's demand). It is a Stream over the completed tensor: the
// versions run ahead over the whole horizon (in parallel, one trace track
// each), then every slot is closed in order through the same
// average/round/repair commit stage a live Stream runs. A run with armed
// solver faults runs its versions one at a time, lowest version first:
// they share the per-slot fault budgets, and that is the order in which a
// Stream consumes them.
//
// Cancelling ctx aborts the run within one solver iteration, returning a
// wrapped ctx.Err(); cfg.SlotBudget bounds each window solve
// individually without failing the run (see Config.SlotBudget). A nil
// ctx means context.Background().
func Run(ctx context.Context, in *model.Instance, pred workload.Forecaster, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := newStream(in, pred, cfg)
	if err != nil {
		return nil, err
	}
	// The fan-out is supervised: a panic inside a version (solver bug,
	// injected worker panic that escaped the per-solve guard) fails the
	// run with a *parallel.PanicError instead of crashing the process.
	workers := 0
	if s.armed != nil {
		workers = 1
	}
	err = parallel.ForSupervised(ctx, len(s.versions), workers, func(v int) error {
		// Each FHC version gets its own trace track, so concurrent
		// versions render as separate Perfetto rows instead of
		// interleaving.
		ctx, vSpan := obs.StartTrack(ctx, "version")
		vSpan.Set("controller", s.cfg.Name())
		vSpan.Set("version", v)
		defer vSpan.End()
		return s.versions[v].runTo(ctx, in.T)
	})
	if err != nil {
		// A bare dispatch-time cancellation from parallel.For needs the
		// package prefix; version errors arrive already wrapped. errors.Is
		// (rather than ==) also matches cause-carrying context errors.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("online: %w", err)
		}
		return nil, err
	}
	if err := s.publish(); err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("online: commit at slot %d: %w", s.cur, err)
		}
		if _, err := s.CloseSlot(ctx); err != nil {
			return nil, err
		}
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	if s.cfg.Telemetry.Enabled() {
		s.cfg.Telemetry.Emit("controller_done", obs.Fields{
			"controller":      s.cfg.Name(),
			"relaxed_cost":    res.RelaxedCost,
			"window_solves":   res.WindowSolves,
			"dual_iterations": res.DualIterations,
			"degraded":        res.Degraded,
			"retries":         res.Retries,
			"replans":         res.Replans,
		})
	}
	return res, nil
}

// solveOnce runs one solve attempt, applying any armed solver fault for
// decision slot tau. Injected panics are routed through the supervised
// fan-out — the same machinery that guards real worker panics — and an
// extra recover converts panics escaping core.Solve itself into errors.
func solveOnce(ctx context.Context, win *model.Instance, opts core.Options, armed *fault.Armed, tau int) (*core.Result, error) {
	if injErr, injPanic := armed.Inject(tau); injPanic {
		err := parallel.ForSupervised(ctx, 1, 1, func(int) error {
			panic(fmt.Sprintf("fault: injected worker panic at τ=%d", tau))
		})
		return nil, err
	} else if injErr != nil {
		return nil, injErr
	}
	return guardedSolve(ctx, win, opts)
}

// guardedSolve converts a panic anywhere inside the window solve into an
// error, so one crashing solve degrades its window instead of killing
// the run. core.Solve drops the workspace of a panicking solve, so
// nothing it left half bound is read again.
func guardedSolve(ctx context.Context, win *model.Instance, opts core.Options) (sol *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, fmt.Errorf("online: window solve panicked: %v", r)
		}
	}()
	return core.Solve(ctx, win, opts)
}

// Degrade walks the degradation ladder for a solve that exceeded its
// budget. It is the one ladder of the repository: the online controllers
// walk it per window and package sim's offline policy per horizon.
//
//  1. best-so-far iterate — when the interrupted solve recovered a
//     feasible trajectory with a finite duality gap, commit it; it is
//     feasible by construction and carries a quality certificate.
//  2. fallback — otherwise plan in with fb (nil selects
//     DefaultFallback: LRFU placement + reactive load split), verifying
//     feasibility so a misbehaving custom fallback fails loudly rather
//     than corrupting the committed trajectory.
//
// It returns the committed result and the rung taken ("best_iterate"
// or "fallback"). The fallback runs under ctx: callers pass the parent
// context, since the budget is already spent and only full cancellation
// may stop it.
func Degrade(ctx context.Context, in *model.Instance, interrupted *core.Result, fb FallbackPlanner) (*core.Result, string, error) {
	if interrupted != nil && interrupted.Trajectory != nil && !math.IsInf(interrupted.Gap, 1) {
		return interrupted, "best_iterate", nil
	}
	if fb == nil {
		fb = DefaultFallback
	}
	traj, err := fb(ctx, in)
	if err != nil {
		return nil, "", fmt.Errorf("online: fallback: %w", err)
	}
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		return nil, "", fmt.Errorf("online: fallback produced infeasible trajectory: %w", err)
	}
	return &core.Result{
		Trajectory: traj,
		Cost:       in.TotalCost(traj),
		LowerBound: math.Inf(-1),
		Gap:        math.Inf(1),
	}, "fallback", nil
}

// shiftMu re-aligns the previous window's multipliers onto the next
// window's slots (overlapping slots keep their values; new slots start at
// zero).
func shiftMu(mu [][][]float64, prevFrom, prevTo, from, to int, in *model.Instance) [][][]float64 {
	out := make([][][]float64, to-from)
	for t := range out {
		out[t] = make([][]float64, in.N)
		abs := from + t
		for n := range out[t] {
			out[t][n] = make([]float64, in.Classes[n]*in.K)
			if abs >= prevFrom && abs < prevTo {
				copy(out[t][n], mu[abs-prevFrom][n])
			}
		}
	}
	return out
}

// predictedLoad zeroes the averaged load split wherever the rounded
// placement dropped the item (step (ii) of the rounding policy), clamps it
// to [0, 1] (provisionalLoad) and then rescales per SBS so the realised
// demand fits the bandwidth. It reports how many SBSs needed the
// bandwidth rescale.
func predictedLoad(in *model.Instance, t int, x model.CachePlan, avgY model.LoadPlan) (model.LoadPlan, int) {
	repaired := 0
	y := provisionalLoad(in, x, avgY)
	for n := 0; n < in.N; n++ {
		// The load sum is demand-weighted, so it runs over the active
		// coordinates of the clamped split (zero-rate terms add an exact
		// +0.0 to the dense sum).
		var load float64
		yn := y[n]
		in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
			load += rate * yn[m][k]
		})
		// The rescale budget is the slot's effective B^t_n: a degraded
		// SBS sheds load proportionally, and a dead one (B^t_n = 0)
		// sheds all of it.
		if bw := in.BandwidthAt(t, n); load > bw && load > 0 {
			repaired++
			scale := bw / load
			for m := 0; m < in.Classes[n]; m++ {
				for k := 0; k < in.K; k++ {
					y[n][m][k] *= scale
				}
			}
		}
	}
	return y, repaired
}

// reactiveLoad recomputes the optimal split for the committed placement
// against realised demand.
func reactiveLoad(in *model.Instance, t int, x model.CachePlan) (model.LoadPlan, error) {
	y, err := loadbalance.OptimalGivenPlacement(in, t, x)
	if err != nil {
		return nil, fmt.Errorf("online: reactive load at slot %d: %w", t, err)
	}
	return y, nil
}
