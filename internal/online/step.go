package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/workload"
)

// VersionStats aggregates one FHC version's solver effort. The fields
// mirror Result's counters; Stream sums them across versions.
type VersionStats struct {
	Solves    int `json:"solves"`
	DualIters int `json:"dualIterations"`
	Degraded  int `json:"degraded"`
	Retries   int `json:"retries"`
	Replans   int `json:"replans"`
}

// versionState is the between-windows state of one FHC version. A
// Stream steps its versions with runTo: eagerly over the whole horizon
// in Run's run-ahead, or one slot at a time as a live stream closes
// slots. The whole of it serialises for snapshot/restore
// (VersionSnapshot).
//
// The version solves at times τ ≡ v (mod r) and commits slots [τ, τ+r).
// The start-up solve of versions v > 0 happens at τ = v−r (per Ψ_v of
// Algorithm 3, with zero demand before slot 0), which reduces to solving
// the clamped window [0, v−r+w) and committing [0, v). Commitments are
// truncated at topology events (slots where some SBS's effective
// capacities change, in.EventSlots), so the post-event world is
// re-solved immediately instead of riding out stale commitments; the
// version then resumes its lattice at the next boundary, which keeps
// fault-free runs byte-identical to the pre-fault controller. At an
// event slot every version replans at the same τ.
//
// The one cross-window warm start is the μ block: the multipliers of
// the last window solve that produced any, shifted onto the next window
// (shiftMu). A window that produced none (fallback) drops the carry, and
// the next solved window re-anchors it. The solver workspace is not the
// version's: every window solve borrows one from core.Solve's pool.
type versionState struct {
	in     *model.Instance
	pred   workload.Forecaster
	cfg    Config // already defaulted
	v      int
	armed  *fault.Armed
	events []int

	// Committed per-slot actions (absolute slot index; shared with the
	// caller's combine stage) and solver-effort counters.
	xa    []model.CachePlan
	ya    []model.LoadPlan
	stats VersionStats

	// tau is the next decision time; slots [0, max(tau, 0)) are committed.
	tau         int
	virtualPrev model.CachePlan

	// μ warm-start seam: the multipliers of the last window solve that
	// produced any, aligned to absolute slots [muFrom, muTo). nil when the
	// last window fell back without multipliers.
	warmMu       [][][]float64
	muFrom, muTo int
}

// newVersionState prepares version v of the controller over in. cfg must
// already have defaults applied. xa and ya are the caller's per-slot
// commit arrays (length in.T).
func newVersionState(in *model.Instance, pred workload.Forecaster, cfg Config, v int,
	armed *fault.Armed, events []int, xa []model.CachePlan, ya []model.LoadPlan) *versionState {

	r := cfg.Commitment
	first := v - r
	if v == 0 {
		first = 0
	}
	return &versionState{
		in:          in,
		pred:        pred,
		cfg:         cfg,
		v:           v,
		armed:       armed,
		events:      events,
		xa:          xa,
		ya:          ya,
		tau:         first,
		virtualPrev: in.InitialPlan(),
	}
}

// runTo steps the version until it has committed an action for every
// slot before end (end ≥ 1, capped at the horizon).
func (vs *versionState) runTo(ctx context.Context, end int) error {
	for vs.tau < min(end, vs.in.T) {
		if err := vs.step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// step runs one window: forecast, solve (with retries, fault injection
// and the degradation ladder), commit [from, commitEnd), advance tau.
// A step that lands on an empty window just advances tau.
//
// With a SlotBudget, the window solve runs under a deadline-carrying
// child context spanning every retry attempt; an overrun degrades the
// window (Degrade) rather than failing the version. Cancellation
// of ctx always fails the version with a wrapped ctx.Err(). Solve
// failures walk retry-with-backoff first (RetryPolicy), then the
// degradation ladder.
func (vs *versionState) step(ctx context.Context) error {
	in, cfg, v, r := vs.in, vs.cfg, vs.v, vs.cfg.Commitment
	tau := vs.tau
	from := max(tau, 0)
	to := min(tau+cfg.Window, in.T)
	// The next on-lattice commit boundary: the smallest L > τ with
	// L ≡ v (mod r). On-lattice this is τ+r; after an event replan
	// (off-lattice τ) it restores the version's staggering.
	lattice := tau + 1 + ((v-(tau+1))%r+r)%r
	commitEnd := min(lattice, in.T)
	eventCut := 0
	for _, e := range vs.events {
		if e > from && e < commitEnd {
			commitEnd, eventCut = e, e
			break
		}
	}
	if from >= to || commitEnd <= from {
		vs.tau = commitEnd
		return nil
	}

	forecast, err := vs.pred.Predict(tau, from, to)
	if err != nil {
		return fmt.Errorf("online: version %d at τ=%d: %w", v, tau, err)
	}
	win, err := in.Window(from, to, vs.virtualPrev, forecast)
	if err != nil {
		return fmt.Errorf("online: version %d at τ=%d: %w", v, tau, err)
	}

	opts := cfg.Core
	opts.Telemetry = cfg.Telemetry
	if vs.warmMu != nil {
		opts.InitialMu = shiftMu(vs.warmMu, vs.muFrom, vs.muTo, from, to, in)
	}

	wctx, wSpan := obs.StartSpan(ctx, "window_solve")
	wSpan.Set("version", v)
	wSpan.Set("tau", tau)
	wSpan.Set("from", from)
	wSpan.Set("to", to)

	// The budget context spans every retry attempt and the backoff
	// sleeps between them: retrying never outlives the slot budget.
	solveCtx, cancel := wctx, context.CancelFunc(nil)
	if cfg.SlotBudget > 0 {
		solveCtx, cancel = context.WithTimeout(wctx, cfg.SlotBudget)
	}
	solveStart := time.Now()
	sol, err := solveWithRetry(solveCtx, win, opts, cfg, vs.armed, v, tau, &vs.stats)
	if cancel != nil {
		cancel()
	}
	solveDur := time.Since(solveStart)
	if err != nil {
		if ctx.Err() != nil {
			wSpan.End()
			// Parent cancellation: fail the version. Anything else —
			// budget overrun (DeadlineExceeded with a live parent) or a
			// solve that kept failing through its retries — walks the
			// degradation ladder: a failure-aware controller must
			// commit something feasible for the slot.
			return fmt.Errorf("online: version %d window [%d, %d): %w", v, from, to, err)
		}
		var mode string
		sol, mode, err = Degrade(ctx, win, sol, cfg.Fallback)
		if err != nil {
			wSpan.End()
			return fmt.Errorf("online: version %d window [%d, %d): degraded solve: %w", v, from, to, err)
		}
		wSpan.Set("degraded", mode)
		vs.stats.Degraded++
		mDegraded.Inc()
		if cfg.Telemetry.Enabled() {
			fields := obs.Fields{
				"controller": cfg.Name(),
				"version":    v,
				"tau":        tau,
				"from":       from,
				"to":         to,
				"budget_ms":  float64(cfg.SlotBudget) / float64(time.Millisecond),
				"mode":       mode,
				"iterations": sol.Iterations,
				"solve_ms":   float64(solveDur) / float64(time.Millisecond),
			}
			if !math.IsInf(sol.Gap, 1) {
				fields["gap"] = sol.Gap
			}
			cfg.Telemetry.Emit("solve_degraded", fields)
		}
	}
	vs.stats.Solves++
	vs.stats.DualIters += sol.Iterations
	mWindowSolves.Inc()
	mDualIters.Add(int64(sol.Iterations))
	mWindowTime.Observe(solveDur)
	if !math.IsInf(sol.Gap, 1) {
		mWindowGapH.Observe(sol.Gap)
	}
	wSpan.Set("iterations", sol.Iterations)
	wSpan.Set("converged", sol.Converged)
	wSpan.End()
	if cfg.Telemetry.Enabled() {
		fields := obs.Fields{
			"controller": cfg.Name(),
			"version":    v,
			"tau":        tau,
			"from":       from,
			"to":         to,
			"commit_to":  commitEnd,
			"iterations": sol.Iterations,
			"converged":  sol.Converged,
			"solve_ms":   float64(solveDur) / float64(time.Millisecond),
		}
		if !math.IsInf(sol.Gap, 1) {
			fields["gap"] = sol.Gap
		}
		cfg.Telemetry.Emit("window_solve", fields)
	}

	// Carry only multipliers that exist, aligned to this window.
	if sol.Mu != nil {
		vs.warmMu, vs.muFrom, vs.muTo = sol.Mu, from, to
	} else {
		vs.warmMu = nil
	}

	for t := from; t < commitEnd; t++ {
		vs.xa[t] = sol.Trajectory[t-from].X
		vs.ya[t] = sol.Trajectory[t-from].Y
	}
	vs.virtualPrev = vs.xa[commitEnd-1]
	if eventCut > 0 {
		vs.stats.Replans++
		mReplans.Inc()
		if cfg.Telemetry.Enabled() {
			cfg.Telemetry.Emit("replan", obs.Fields{
				"controller": cfg.Name(),
				"version":    v,
				"tau":        tau,
				"event_slot": eventCut,
				"committed":  commitEnd - from,
			})
		}
	}
	vs.tau = commitEnd
	return nil
}

// solveWithRetry is the per-window solve wrapped in the bounded
// retry-with-backoff of cfg.Retry, with the schedule's solver faults
// injected per attempt. Context errors — parent cancellation or slot
// budget exhaustion — are never retried; the caller distinguishes them.
// On failure the best partial result seen (an interrupted solve's
// best-so-far iterate) is returned alongside the error so the
// degradation ladder can still use it.
func solveWithRetry(ctx context.Context, win *model.Instance, opts core.Options, cfg Config,
	armed *fault.Armed, v, tau int, stats *VersionStats) (*core.Result, error) {

	var best *core.Result
	backoff := cfg.Retry.Backoff
	for attempt := 0; ; attempt++ {
		sol, err := solveOnce(ctx, win, opts, armed, tau)
		if err == nil {
			return sol, nil
		}
		if sol != nil {
			best = sol
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return best, err
		}
		if attempt >= cfg.Retry.Max {
			return best, err
		}
		stats.Retries++
		mRetries.Inc()
		if cfg.Telemetry.Enabled() {
			cfg.Telemetry.Emit("retry", obs.Fields{
				"controller": cfg.Name(),
				"version":    v,
				"tau":        tau,
				"attempt":    attempt + 1,
				"backoff_ms": float64(backoff) / float64(time.Millisecond),
				"error":      err.Error(),
			})
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return best, err
		}
		backoff = time.Duration(float64(backoff) * cfg.Retry.Factor)
	}
}
