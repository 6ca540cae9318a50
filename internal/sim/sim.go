// Package sim runs caching/load-balancing policies over problem instances
// and accounts their costs: it is the numerical-evaluation harness behind
// §V. A Policy plans a full trajectory (offline solver, online controller
// or rule-based baseline, via the adapters below); Run verifies
// feasibility and produces the cost breakdown plus the per-slot series
// that the paper's figures plot.
//
// Every entry point is context-first: cancelling the context aborts the
// underlying solves within one solver iteration and surfaces a wrapped
// ctx.Err(). Policies that support deadline-budgeted solving (the
// offline solver and the online controllers) additionally implement
// Budgeted, which RunWith uses to wire a per-slot solve budget and
// degradation fallback through without changing the Policy interface.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"edgecache/internal/audit"
	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// Always-on harness metrics (atomic; read by -metrics, /debug/vars).
var (
	mRuns     = obs.Default.Counter("sim.runs")
	mPlanTime = obs.Default.Timer("sim.plan")
	mDegraded = obs.Default.Counter("solver.degraded")
)

// Policy plans a trajectory for an instance. Online policies read
// forecasts from the predictor; offline policies and baselines use the
// instance's exact demand and ignore it.
type Policy interface {
	// Name is the label used in result tables.
	Name() string
	// Plan returns a feasible trajectory over the instance's horizon,
	// honouring ctx cancellation (a done ctx surfaces as a wrapped
	// ctx.Err() within one solver iteration).
	Plan(ctx context.Context, in *model.Instance, pred workload.Forecaster) (model.Trajectory, error)
}

// Observable is implemented by policies that can carry a telemetry
// handle into their solver. RunWith uses it to thread the handle
// through without changing the Policy interface; custom planners may
// implement it to receive the same handle.
type Observable interface {
	// Observe returns a copy of the policy wired to tel.
	Observe(tel *obs.Telemetry) Policy
}

// Budgeted is implemented by policies whose solves can run under a
// wall-clock budget with graceful degradation (best-so-far iterate,
// then fallback). RunWith uses it to wire Config.SlotBudget through.
type Budgeted interface {
	// WithBudget returns a copy of the policy whose solves degrade
	// gracefully after d of wall-clock time each; fb (nil = the LRFU +
	// reactive default) plans a window when nothing usable exists.
	WithBudget(d time.Duration, fb online.FallbackPlanner) Policy
}

// FaultAware is implemented by policies that react to an injected fault
// schedule beyond planning against its effective instance: event-driven
// replans, armed solver faults, retry-with-backoff. RunWith uses it to
// wire Config.Faults through; policies without it (baselines, the
// offline solver) still see the faults through the materialised
// instance's overlay.
type FaultAware interface {
	// WithFaults returns a copy of the policy armed with the schedule.
	WithFaults(s *fault.Schedule) Policy
}

// Offline adapts the primal-dual solver (Algorithm 1) into a Policy: the
// paper's "offline optimal" reference, which sees all information. Under
// a budget (Budgeted) the whole-horizon solve runs against one deadline
// and commits its best-so-far iterate when the deadline strikes.
func Offline(opts core.Options) Policy { return offlinePolicy{opts: opts} }

type offlinePolicy struct {
	opts     core.Options
	budget   time.Duration
	fallback online.FallbackPlanner
}

func (offlinePolicy) Name() string { return "Offline" }

func (p offlinePolicy) Observe(tel *obs.Telemetry) Policy {
	p.opts.Telemetry = tel
	return p
}

func (p offlinePolicy) WithBudget(d time.Duration, fb online.FallbackPlanner) Policy {
	p.budget = d
	p.fallback = fb
	return p
}

func (p offlinePolicy) Plan(ctx context.Context, in *model.Instance, _ workload.Forecaster) (model.Trajectory, error) {
	solveCtx, cancel := ctx, context.CancelFunc(nil)
	if p.budget > 0 {
		solveCtx, cancel = context.WithTimeout(ctx, p.budget)
	}
	res, err := core.Solve(solveCtx, in, p.opts)
	if cancel != nil {
		cancel()
	}
	if err != nil {
		if ctx.Err() != nil || !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// Budget overrun with the parent context still live: degrade.
		return p.degrade(ctx, in, res)
	}
	return res.Trajectory, nil
}

// degrade walks online.Degrade over the whole horizon — the same ladder
// the online controllers walk per window — and reports the rung taken.
func (p offlinePolicy) degrade(ctx context.Context, in *model.Instance, partial *core.Result) (model.Trajectory, error) {
	res, mode, err := online.Degrade(ctx, in, partial, p.fallback)
	if err != nil {
		return nil, err
	}
	mDegraded.Inc()
	if tel := p.opts.Telemetry; tel.Enabled() {
		fields := obs.Fields{
			"controller": p.Name(),
			"budget_ms":  float64(p.budget) / float64(time.Millisecond),
			"mode":       mode,
		}
		if mode == "best_iterate" {
			fields["iterations"] = res.Iterations
			fields["gap"] = res.Gap
		}
		tel.Emit("solve_degraded", fields)
	}
	return res.Trajectory, nil
}

// Online adapts an online controller configuration into a Policy.
func Online(cfg online.Config) Policy { return onlinePolicy{cfg: cfg} }

type onlinePolicy struct{ cfg online.Config }

func (p onlinePolicy) Name() string { return p.cfg.Name() }

func (p onlinePolicy) Observe(tel *obs.Telemetry) Policy {
	p.cfg.Telemetry = tel
	return p
}

func (p onlinePolicy) WithBudget(d time.Duration, fb online.FallbackPlanner) Policy {
	p.cfg.SlotBudget = d
	p.cfg.Fallback = fb
	return p
}

func (p onlinePolicy) WithFaults(s *fault.Schedule) Policy {
	p.cfg.Faults = s
	return p
}

func (p onlinePolicy) Plan(ctx context.Context, in *model.Instance, pred workload.Forecaster) (model.Trajectory, error) {
	if pred == nil {
		return nil, errors.New("sim: online policy requires a predictor")
	}
	res, err := online.Run(ctx, in, pred, p.cfg)
	if err != nil {
		return nil, err
	}
	return res.Trajectory, nil
}

// FromBaseline adapts a rule-based baseline into a Policy.
func FromBaseline(b baseline.Policy) Policy { return baselinePolicy{b: b} }

type baselinePolicy struct{ b baseline.Policy }

func (p baselinePolicy) Name() string { return p.b.Name() }

func (p baselinePolicy) Plan(ctx context.Context, in *model.Instance, _ workload.Forecaster) (model.Trajectory, error) {
	return p.b.Plan(ctx, in)
}

// SlotMetrics are the per-slot series plotted by the paper's figures.
type SlotMetrics struct {
	// BS and SBS are the operating costs f_t and g_t.
	BS  float64 `json:"bsCost"`
	SBS float64 `json:"sbsCost"`
	// Replacement is the switching cost paid entering this slot;
	// Replacements is the insertion count.
	Replacement  float64 `json:"replacementCost"`
	Replacements int     `json:"replacements"`
	// CacheUtilization is cached items / total capacity.
	CacheUtilization float64 `json:"cacheUtilization"`
	// OffloadFraction is SBS-served demand / total demand.
	OffloadFraction float64 `json:"offloadFraction"`
}

// Result is one policy's evaluated run.
type Result struct {
	// Policy is the planner's name.
	Policy string `json:"policy"`
	// Trajectory is the planned, verified decision sequence. It is
	// excluded from JSON output (bulky and reproducible from the seed).
	Trajectory model.Trajectory `json:"-"`
	// Cost is the horizon-total breakdown (objective of eq. 9).
	Cost model.CostBreakdown `json:"cost"`
	// PerSlot holds the per-slot series.
	PerSlot []SlotMetrics `json:"perSlot"`
	// Runtime is the wall-clock planning time (JSON: nanoseconds, per
	// time.Duration's integer encoding).
	Runtime time.Duration `json:"runtimeNanos"`
	// Audit is the differential auditor's report when Config.Audit was
	// set (nil otherwise). A clean run has Audit.OK() == true.
	Audit *audit.Report `json:"audit,omitempty"`
	// Curve holds the convergence/regret curves when Config.Curves was
	// set (nil otherwise).
	Curve *Curve `json:"curve,omitempty"`
}

// Config tunes one evaluated run beyond the policy itself — the options
// behind the public API's functional RunOptions.
type Config struct {
	// Telemetry is threaded into the policy's solvers (Observable) and
	// receives one run_summary event per evaluated run. nil disables.
	Telemetry *obs.Telemetry
	// SlotBudget bounds each solve's wall-clock time for Budgeted
	// policies (per window for online controllers, whole-horizon for the
	// offline solver); overruns degrade gracefully. 0 disables.
	SlotBudget time.Duration
	// Fallback overrides the degraded-mode planner (nil = LRFU placement
	// + reactive load split). Only consulted when SlotBudget is set.
	Fallback online.FallbackPlanner
	// Audit re-derives everything the committed trajectory claims
	// (package audit): per-slot constraints, placement integrality and an
	// independent cost recomputation. Violations are published as
	// audit_violation events plus the audit.violations counter, and the
	// report is attached to Result.Audit. Observational: a violating run
	// still returns its result.
	Audit bool
	// Faults injects the schedule's failures into the run: topology
	// injectors are materialised into the instance's effective per-slot
	// overlay, prediction corruption is hooked into the predictor, and
	// FaultAware policies additionally arm solver faults and event-driven
	// replans. nil (or an empty schedule) is the failure-free run.
	Faults *fault.Schedule
	// Curves captures the solver's dual-gap trajectory and the committed
	// cumulative cost into Result.Curve (see Curve). Observational: it
	// taps the event stream without changing solver behaviour.
	Curves bool
}

// RunWith plans with the policy under the given run configuration,
// verifies feasibility, and accounts costs. One run_summary event is
// emitted per evaluated run when telemetry is enabled.
func RunWith(ctx context.Context, in *model.Instance, pred workload.Forecaster, p Policy, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tel := cfg.Telemetry
	var curves *curveCollector
	if cfg.Curves {
		// Tap the event stream: tee into the collector next to whatever
		// sink the caller installed (or alone, enabling telemetry just
		// for the capture — still observational either way).
		curves = &curveCollector{}
		if tel.Enabled() {
			tel = obs.New(obs.Tee(tel.Sink(), curves), tel.Registry())
		} else {
			tel = obs.New(curves, tel.Registry())
		}
	}
	if !cfg.Faults.Empty() {
		// Materialise the fault schedule into the effective per-slot
		// instance (shares the base demand tensor, so the predictor's
		// truth pointer stays valid) and corrupt the predictor's output
		// when the schedule says so.
		out, err := cfg.Faults.Materialize(in, tel)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		in = out
		if hook := cfg.Faults.Corruptor(in.Demand); hook != nil && pred != nil {
			pred = workload.Corrupt(pred, hook)
		}
		if fa, ok := p.(FaultAware); ok {
			p = fa.WithFaults(cfg.Faults)
		}
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if o, ok := p.(Observable); ok && tel.Enabled() {
		p = o.Observe(tel)
	}
	if cfg.SlotBudget > 0 {
		if b, ok := p.(Budgeted); ok {
			p = b.WithBudget(cfg.SlotBudget, cfg.Fallback)
		}
	}
	mRuns.Inc()
	// Trace root: one "run" span per evaluated policy. Children (version
	// tracks, window solves, dual batches) hang off the derived ctx.
	ctx, runSpan := obs.StartSpan(ctx, "run")
	runSpan.Set("policy", p.Name())
	defer runSpan.End()
	start := time.Now()
	traj, err := p.Plan(ctx, in, pred)
	if err != nil {
		// A failed plan still gets its run_summary (with the error and
		// whether the caller cancelled), so a monitoring pipeline can tell
		// an aborted run from one that hung and never reported.
		if tel.Enabled() {
			tel.Emit("run_summary", obs.Fields{
				"policy":    p.Name(),
				"slots":     in.T,
				"error":     err.Error(),
				"cancelled": ctx.Err() != nil,
				"plan_ms":   float64(time.Since(start)) / float64(time.Millisecond),
			})
		}
		return nil, fmt.Errorf("sim: %s: %w", p.Name(), err)
	}
	elapsed := time.Since(start)
	mPlanTime.Observe(elapsed)

	// Audit before Evaluate so violations are published even when the
	// trajectory is rejected as infeasible below.
	var rep *audit.Report
	var auditTime time.Duration
	if cfg.Audit {
		auditStart := time.Now()
		rep = audit.Trajectory(in, traj, nil, audit.Options{})
		auditTime = time.Since(auditStart)
		rep.Publish(tel, p.Name())
	}

	perSlot, cost, err := Evaluate(in, traj)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.Name(), err)
	}
	if tel.Enabled() {
		fields := obs.Fields{
			"policy":           p.Name(),
			"slots":            in.T,
			"total_cost":       cost.Total,
			"bs_cost":          cost.BS,
			"sbs_cost":         cost.SBS,
			"replacement_cost": cost.Replacement,
			"replacements":     cost.Replacements,
			"plan_ms":          float64(elapsed) / float64(time.Millisecond),
		}
		if cfg.Audit {
			fields["audit_violations"] = len(rep.Violations)
			fields["audit_ms"] = float64(auditTime) / float64(time.Millisecond)
		}
		tel.Emit("run_summary", fields)
	}
	res := &Result{
		Policy:     p.Name(),
		Trajectory: traj,
		Cost:       cost,
		PerSlot:    perSlot,
		Runtime:    elapsed,
		Audit:      rep,
	}
	if curves != nil {
		res.Curve = curves.curve(perSlot)
	}
	return res, nil
}

// Evaluate verifies a trajectory and computes its per-slot series and
// total cost breakdown.
func Evaluate(in *model.Instance, traj model.Trajectory) ([]SlotMetrics, model.CostBreakdown, error) {
	if err := in.CheckTrajectory(traj, 1e-6); err != nil {
		return nil, model.CostBreakdown{}, err
	}
	perSlot := make([]SlotMetrics, in.T)
	prev := in.InitialPlan()
	// CacheUtilization keeps the *base* capacity as its denominator even
	// when a fault overlay shrinks the effective capacity: an outage then
	// reads as a utilisation dip instead of being renormalised away.
	var totalCap int
	for n := 0; n < in.N; n++ {
		totalCap += in.CacheCap[n]
	}
	for t := range traj {
		m := SlotMetrics{
			BS:           in.BSCost(t, traj[t].Y),
			SBS:          in.SBSCost(t, traj[t].Y),
			Replacement:  in.ReplacementCost(prev, traj[t].X),
			Replacements: model.ReplacementCount(prev, traj[t].X),
		}
		var cached int
		var served, demand float64
		for n := 0; n < in.N; n++ {
			cached += len(traj[t].X.Items(n))
			yn := traj[t].Y[n]
			in.Demand.ForEachActive(t, n, func(mm, k int, rate float64) {
				served += rate * yn[mm][k]
				demand += rate
			})
		}
		if totalCap > 0 {
			m.CacheUtilization = float64(cached) / float64(totalCap)
		}
		if demand > 0 {
			m.OffloadFraction = served / demand
		}
		perSlot[t] = m
		prev = traj[t].X
	}
	return perSlot, in.TotalCost(traj), nil
}
