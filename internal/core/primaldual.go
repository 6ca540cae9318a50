// Package core implements the paper's primary contribution: the offline
// primal-dual decomposition solver (Algorithm 1) for the joint caching /
// load-balancing problem of eq. (9).
//
// The coupling constraint y ≤ x (eq. 3) is relaxed with multipliers
// μ^t_{n,m,k} ≥ 0 (eq. 12). For fixed μ the Lagrangian splits into the
// caching subproblem P1 (package caching — integral by Theorem 1) and the
// load-balancing subproblem P2 (package loadbalance — smooth convex). The
// dual is ascended by a projected subgradient g = y − x with diminishing
// step δ_l = 1/(1 + αl) (eqs. 15–17); every iteration also recovers a
// feasible primal by fixing a placement and re-solving the best load
// split subject to y ≤ x, which provides the upper bound of Algorithm 1.
// The placements recovered are the iteration's P1 placement (the
// Lagrangian candidate) and, from the second iteration on, the rounded
// running mean of the P1 placements so far (the ergodic candidate: the
// averaged-iterate primal recovery of subgradient methods).
//
// Solve returns the best feasible solution found, together with the dual
// lower bound and the achieved gap — exactly the bookkeeping in the
// paper's Algorithm 1 (LB/UB with tolerance ε = 10⁻⁴).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/obs"
)

// Always-on solver metrics (atomic; read by -metrics and /debug/vars).
var (
	mSolves    = obs.Default.Counter("core.solves")
	mIters     = obs.Default.Counter("core.iterations")
	mConverged = obs.Default.Counter("core.converged")
	mP1Time    = obs.Default.Timer("core.p1_solve")
	mP2Time    = obs.Default.Timer("core.p2_solve")
	mRecover   = obs.Default.Timer("core.recover")
	mSolveTime = obs.Default.Timer("core.solve")
	mLastGap   = obs.Default.Gauge("core.last_gap")
	mGapHist   = obs.Default.Histogram("core.final_gap")
	mIterHist  = obs.Default.Histogram("core.iterations_per_solve")
	// Dual-loop yield: solves whose dual iterations beat the seeded upper
	// bound, solves that returned an ergodic candidate, and the last
	// iteration that improved the bound (0: never beaten).
	mUBImproved   = obs.Default.Counter("core.ub_improved")
	mUBErgodic    = obs.Default.Counter("core.ub_ergodic")
	mLastImprHist = obs.Default.Histogram("core.last_improving_iter")
)

// The sources of an upper bound, as the solve span's ub_source reports
// them: the seed heuristic, an iteration's P1 placement, or the rounded
// running mean of the P1 placements.
const (
	ubSeed       = "seed"
	ubLagrangian = "lagrangian"
	ubErgodic    = "ergodic"
)

// dualBatchSpanSize groups dual iterations into one "dual_batch" span
// each, so traces of long solves stay browsable: run → solve →
// dual_batch → caching/loadbalance/recover.
const dualBatchSpanSize = 8

// Options tune Algorithm 1. The zero value selects the paper's defaults.
type Options struct {
	// Epsilon is the relative duality-gap stopping tolerance (paper: 1e-4).
	Epsilon float64
	// MaxIter is the iteration budget L (default 60).
	MaxIter int
	// StepAlpha is α in the diminishing step δ_l = 1/(1+αl) (default 0.05).
	// Smaller values take larger steps for longer.
	StepAlpha float64
	// StallIter stops the iteration early when the recovered upper bound
	// has not improved for this many consecutive iterations (the duality
	// gap rarely closes to ε on integer instances, so this is the
	// practical stopping rule; default 8, ≤ 0 disables).
	StallIter int
	// InitialMu warm-starts the dual multipliers (shape [T][N][M_n·K]);
	// nil starts from zero. Receding-horizon controllers pass the shifted
	// multipliers of the previous window, which typically cuts the
	// iteration count several-fold.
	InitialMu [][][]float64
	// Telemetry receives one solver_iteration event per dual update
	// (iteration, LB, UB, gap, step, subgradient norm, P1/P2/recovery
	// durations) and a solver_done summary. Telemetry is observational
	// only — it never alters the iterates — and the nil default costs
	// nothing on the hot path.
	Telemetry *obs.Telemetry
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-4
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if o.StepAlpha <= 0 {
		o.StepAlpha = 0.05
	}
	if o.StallIter == 0 {
		o.StallIter = 8
	}
	return o
}

// p2Settings bound Algorithm 1's inner P2 solves, dual and recovery alike.
// They happen hundreds of times per outer iteration; a relative accuracy
// far below the duality gap is wasted work.
var p2Settings = convex.Options{MaxIter: 600, StepTol: 1e-6}

// Result is the outcome of an offline solve. A cancelled or deadline-
// expired solve returns the best-so-far Result alongside the wrapped
// context error (see Solve); all fields then describe the partial run.
type Result struct {
	// Trajectory is the best feasible (integral-x) solution found.
	Trajectory model.Trajectory
	// Cost is the objective breakdown of Trajectory (the upper bound UB).
	Cost model.CostBreakdown
	// LowerBound is the best dual value (a certified lower bound on the
	// optimum of eq. 9).
	LowerBound float64
	// Gap is (UB − LB) / max(|UB|, 1), clamped at 0. It is +Inf until the
	// first dual iteration completes (no lower bound exists yet) — the
	// condition the degradation ladder of package online keys on.
	Gap float64
	// Iterations is the number of dual updates performed.
	Iterations int
	// LastImprovingIter is the last dual iteration whose recovered
	// trajectory (Lagrangian or ergodic) lowered the upper bound below the
	// seed heuristic's (or an earlier iteration's); 0 means the seed was
	// never beaten.
	LastImprovingIter int
	// Converged reports whether Gap ≤ Epsilon within MaxIter.
	Converged bool
	// Mu holds the final dual multipliers, suitable for warm-starting a
	// subsequent overlapping solve via Options.InitialMu.
	Mu [][][]float64
}

// Solve runs Algorithm 1 on the full horizon of the instance.
//
// Cancellation is checked at the start of every dual iteration and inside
// every inner P1/P2/recovery solve. When ctx is cancelled or its deadline
// expires mid-solve, Solve returns a wrapped ctx.Err(); the returned
// *Result is then non-nil iff at least one feasible trajectory had been
// recovered, and holds the best-so-far primal iterate together with the
// bounds achieved up to the interruption. Callers implementing graceful
// degradation (the per-slot budget of package online) commit that iterate
// when its duality gap is finite. A nil ctx means context.Background().
//
// Solve is safe for concurrent use: each call borrows its own solver
// workspace from a package-level pool.
func Solve(ctx context.Context, in *model.Instance, opts Options) (*Result, error) {
	ws := workspaces.Get().(*workspace)
	res, err := solve(ctx, in, opts, ws)
	// Put back on every return, errors and cancellation included: any
	// parallel.For inside has joined its helpers by then. Not deferred,
	// so a panicking solve drops the workspace it may have left half bound.
	ws.release()
	workspaces.Put(ws)
	return res, err
}

// solve is Solve on the caller's workspace ws, which it rebinds to in.
func solve(ctx context.Context, in *model.Instance, opts Options, ws *workspace) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts = opts.withDefaults()
	stepScale := autoStepScale(in)
	tel := opts.Telemetry
	mSolves.Inc()
	solveStart := time.Now()
	defer func() { mSolveTime.Observe(time.Since(solveStart)) }()

	// Hierarchical trace: one "solve" span per Algorithm 1 invocation,
	// with per-batch and per-phase children below. Nil (tracing off) for
	// every method call when no tracer is installed in ctx.
	ctx, solveSpan := obs.StartSpan(ctx, "solve")
	var batch *obs.Span
	defer func() { batch.End(); solveSpan.End() }()

	ws.bind(in)

	// μ[t][n] is a flat (class, content) row like the demand layout.
	mu := make([][][]float64, in.T)
	for t := range mu {
		mu[t] = make([][]float64, in.N)
		for n := range mu[t] {
			mu[t][n] = make([]float64, in.Classes[n]*in.K)
			if opts.InitialMu != nil {
				if len(opts.InitialMu) != in.T || len(opts.InitialMu[t]) != in.N ||
					len(opts.InitialMu[t][n]) != in.Classes[n]*in.K {
					return nil, fmt.Errorf("core: InitialMu shape mismatch at (t=%d, n=%d)", t, n)
				}
				copy(mu[t][n], opts.InitialMu[t][n])
				for i, v := range mu[t][n] {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						return nil, fmt.Errorf("core: InitialMu[%d][%d][%d] = %g invalid", t, n, i, v)
					}
				}
			}
		}
	}

	res := &Result{LowerBound: math.Inf(-1), Gap: math.Inf(1)}
	best := math.Inf(1)
	found := false
	source := ""
	stall := 0
	// Recovery targets: bestTraj holds the best trajectory so far and cand
	// the one being evaluated; they swap when cand improves on the best.
	// They and the ergodic state belong to this Solve, so an idle
	// workspace retains none of them.
	bestTraj, cand := model.NewTrajectory(in), model.NewTrajectory(in)
	erg := newErgodic(in)

	// partial is the best-so-far result handed back alongside a context
	// error: nil until a feasible trajectory exists, so callers can
	// distinguish "nothing usable" from "usable but unfinished".
	partial := func() *Result {
		if !found {
			return nil
		}
		res.Trajectory = bestTraj
		res.Mu = mu
		return res
	}

	// improve takes the trajectory just recovered into cand as the best
	// when it lowers the upper bound by more than a relative 1e-9 (the
	// first one always does), and reports whether it did. The recovery
	// targets swap instead of copying.
	improve := func(src string) bool {
		br := in.TotalCost(cand)
		if found && !(br.Total < best-1e-9*(1+math.Abs(best))) {
			return false
		}
		best, found, source = br.Total, true, src
		res.Cost = br
		bestTraj, cand = cand, bestTraj
		return true
	}

	// Seed the upper bound with the linearised-reward heuristic before any
	// dual iteration: the Lagrangian placements can carry an integrality
	// gap that the subgradient never closes, while the seed is near-optimal
	// at both β extremes (myopic top-C at β = 0, near-static as β → ∞).
	if seed, err := ws.linearizedPlacements(ctx, in); err == nil {
		if err := ws.p2.Recover(ctx, seed, cand, p2Settings); err == nil {
			improve(ubSeed)
		}
	}

	for l := 1; l <= opts.MaxIter; l++ {
		if err := ctx.Err(); err != nil {
			return partial(), fmt.Errorf("core: solve interrupted before iteration %d: %w", l, err)
		}
		res.Iterations = l
		mIters.Inc()
		if solveSpan != nil && (l-1)%dualBatchSpanSize == 0 {
			batch.End()
			batch = solveSpan.Child("dual_batch")
			batch.Set("first_iter", l)
		}

		// ρ^t_{n,k} = Σ_m μ^t_{n,m,k} for P1.
		for t := 0; t < in.T; t++ {
			for n := 0; n < in.N; n++ {
				row := ws.rewards[t][n]
				for k := range row {
					row[k] = 0
				}
				muRow := mu[t][n]
				for m := 0; m < in.Classes[n]; m++ {
					base := m * in.K
					for k := 0; k < in.K; k++ {
						row[k] += muRow[base+k]
					}
				}
			}
		}

		p1Span := batch.Child("caching")
		p1Span.Set("iter", l)
		p1Start := time.Now()
		xPlans, objP1, err := ws.p1.SolveAll(ctx, ws.rewards)
		p1Span.End()
		if err != nil {
			return partialOnCtx(ctx, partial), fmt.Errorf("core: iteration %d: %w", l, err)
		}
		p1Dur := time.Since(p1Start)
		mP1Time.Observe(p1Dur)

		// The dual iterates warm-start from the previous iteration by
		// staying in place inside the workspace; no plan copies change hands.
		p2Span := batch.Child("loadbalance")
		p2Span.Set("iter", l)
		p2Start := time.Now()
		objP2, err := ws.p2.SolveDual(ctx, mu, p2Settings)
		p2Span.End()
		if err != nil {
			return partialOnCtx(ctx, partial), fmt.Errorf("core: iteration %d: %w", l, err)
		}
		p2Dur := time.Since(p2Start)
		mP2Time.Observe(p2Dur)

		// Dual value = P1 + P2 optima (weak duality ⇒ lower bound).
		if dual := objP1 + objP2; dual > res.LowerBound {
			res.LowerBound = dual
		}

		// Primal recovery: keep x, re-solve y subject to y ≤ x, for the
		// Lagrangian candidate and then for the ergodic one.
		recSpan := batch.Child("recover")
		recSpan.Set("iter", l)
		recStart := time.Now()
		err = ws.p2.Recover(ctx, xPlans, cand, p2Settings)
		improved := err == nil && improve(ubLagrangian)
		if err == nil && erg.step(in, xPlans, l) {
			if err = ws.p2.Recover(ctx, erg.cand, cand, p2Settings); err == nil && improve(ubErgodic) {
				improved = true
			}
		}
		recSpan.End()
		if err != nil {
			return partialOnCtx(ctx, partial), fmt.Errorf("core: iteration %d: %w", l, err)
		}
		recDur := time.Since(recStart)
		mRecover.Observe(recDur)
		if improved {
			res.LastImprovingIter = l
			stall = 0
		} else {
			stall++
		}

		res.Gap = math.Max(0, (best-res.LowerBound)/math.Max(math.Abs(best), 1))
		mLastGap.Set(res.Gap)

		// δ_l is a pure function of l, so the value reported for this
		// iteration equals the step a continuing iteration would take.
		delta := stepScale / (1 + opts.StepAlpha*float64(l))
		if tel.Enabled() {
			tel.Emit("solver_iteration", obs.Fields{
				"iter":         l,
				"lb":           res.LowerBound,
				"ub":           best,
				"gap":          res.Gap,
				"step":         delta,
				"subgrad_norm": subgradNorm(in, xPlans, ws),
				"p1_ms":        ms(p1Dur),
				"p2_ms":        ms(p2Dur),
				"recover_ms":   ms(recDur),
			})
		}

		if res.Gap <= opts.Epsilon {
			res.Converged = true
			break
		}
		if opts.StallIter > 0 && stall >= opts.StallIter {
			break
		}

		// Projected subgradient step on μ (eqs. 15–17).
		for t := 0; t < in.T; t++ {
			for n := 0; n < in.N; n++ {
				muRow := mu[t][n]
				yRow := ws.p2.DualY(t, n)
				xRow := xPlans[t][n]
				for m := 0; m < in.Classes[n]; m++ {
					base := m * in.K
					for k := 0; k < in.K; k++ {
						g := yRow[base+k] - xRow[k]
						v := muRow[base+k] + delta*g
						if v < 0 {
							v = 0
						}
						muRow[base+k] = v
					}
				}
			}
		}
	}

	if !found {
		return nil, errors.New("core: no feasible solution recovered")
	}
	res.Trajectory = bestTraj
	res.Mu = mu
	if res.Converged {
		mConverged.Inc()
	}
	if res.LastImprovingIter > 0 {
		mUBImproved.Inc()
	}
	if source == ubErgodic {
		mUBErgodic.Inc()
	}
	mGapHist.Observe(res.Gap)
	mIterHist.Observe(float64(res.Iterations))
	mLastImprHist.Observe(float64(res.LastImprovingIter))
	solveSpan.Set("iterations", res.Iterations)
	solveSpan.Set("last_improving_iter", res.LastImprovingIter)
	solveSpan.Set("ub_source", source)
	solveSpan.Set("converged", res.Converged)
	solveSpan.Set("gap", res.Gap)
	if tel.Enabled() {
		tel.Emit("solver_done", obs.Fields{
			"iterations": res.Iterations,
			"converged":  res.Converged,
			"lb":         res.LowerBound,
			"ub":         res.Cost.Total,
			"gap":        res.Gap,
			"total_ms":   ms(time.Since(solveStart)),
		})
	}
	return res, nil
}

// ergodic is the ergodic candidate of one Solve: the running sum and
// mean of its iterations' P1 placements, the rounded mean and the
// previous iteration's rounded mean, each [t][n][k].
type ergodic struct {
	sum, mean, cand, prev []model.CachePlan
	round                 Rounder
}

func newErgodic(in *model.Instance) *ergodic {
	plans := func() []model.CachePlan {
		ps := make([]model.CachePlan, in.T)
		for t := range ps {
			ps[t] = model.NewCachePlan(in.N, in.K)
		}
		return ps
	}
	return &ergodic{sum: plans(), mean: plans(), cand: plans(), prev: plans()}
}

// step folds iteration l's P1 placements x into the running sum and,
// from the second iteration on, rounds the running mean x̄_l = Σ x / l
// with the combiner's policy (Rounder at DefaultRho under each slot's
// C^t_n) into e.cand. It reports whether the candidate needs a recovery.
// Recovery is a pure function of the placement, so a candidate equal to
// x (recovered this iteration) or to the previous candidate (recovered
// last iteration) is skipped exactly.
func (e *ergodic) step(in *model.Instance, x []model.CachePlan, l int) bool {
	for t, plan := range x {
		for n, row := range plan {
			sum := e.sum[t][n]
			for k, v := range row {
				sum[k] += v
			}
		}
	}
	if l == 1 {
		return false
	}
	e.cand, e.prev = e.prev, e.cand
	count := float64(l)
	for t := range e.sum {
		for n, sum := range e.sum[t] {
			mean := e.mean[t][n]
			for k, v := range sum {
				mean[k] = v / count
			}
		}
		e.round.Round(in, t, e.mean[t], e.cand[t], DefaultRho)
	}
	return !samePlans(e.cand, x) && (l == 2 || !samePlans(e.cand, e.prev))
}

// samePlans reports whether two placement sequences of one shape agree.
func samePlans(a, b []model.CachePlan) bool {
	for t := range a {
		for n, row := range a[t] {
			for k, v := range row {
				if v != b[t][n][k] {
					return false
				}
			}
		}
	}
	return true
}

// subgradNorm is the L2 norm of the dual subgradient g = y − x — the
// convergence diagnostic reported per iteration. It is computed only
// when telemetry is enabled, so the disabled path never pays the pass.
func subgradNorm(in *model.Instance, xPlans []model.CachePlan, ws *workspace) float64 {
	var sum float64
	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			yRow := ws.p2.DualY(t, n)
			xRow := xPlans[t][n]
			for m := 0; m < in.Classes[n]; m++ {
				base := m * in.K
				for k := 0; k < in.K; k++ {
					g := yRow[base+k] - xRow[k]
					sum += g * g
				}
			}
		}
	}
	return math.Sqrt(sum)
}

// ms converts a duration to fractional milliseconds for event payloads.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// partialOnCtx returns the best-so-far result when an inner solve failed
// because the context is done (the partial iterate is still valid and
// valuable), and nil for genuine solver failures (nothing trustworthy to
// return).
func partialOnCtx(ctx context.Context, partial func() *Result) *Result {
	if ctx.Err() != nil {
		return partial()
	}
	return nil
}

// autoStepScale calibrates the subgradient step to the problem's cost
// scale. The subgradient g = y − x lives in [−1, 1] while useful
// multipliers must reach the scale of the cost gradients, so every raw
// step 1/(1+αl) is multiplied by twice the mean magnitude of ∂f/∂y at
// y = 0 over all coordinates with demand — a problem-size-independent
// calibration.
func autoStepScale(in *model.Instance) float64 {
	var sum float64
	var count int
	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			omega := in.OmegaBS[n]
			// A_n = Σ_m ω_m Σ_k λ: the all-BS weighted load.
			var a float64
			in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
				a += omega[m] * rate
			})
			in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
				if rate > 0 {
					sum += 2 * a * omega[m] * rate
					count++
				}
			})
		}
	}
	if count == 0 || sum <= 0 {
		return 1
	}
	return 2 * sum / float64(count)
}
