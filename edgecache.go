// Package edgecache is a library for joint online edge caching and load
// balancing in cache-enabled cellular networks, reproducing Zeng, Huang,
// Liu & Yang, "Joint Online Edge Caching and Load Balancing for Mobile
// Data Offloading in 5G Networks" (ICDCS 2019).
//
// The model: a macro base station (BS) backs a set of small base stations
// (SBS), each with a small content cache and a per-slot bandwidth budget.
// Every slot, a controller decides which contents each SBS caches (paying
// a replacement cost β per fetched item) and what fraction of each user
// class's requests the SBS serves (the BS serves the rest at quadratic
// operating cost). The library provides:
//
//   - the offline primal-dual solver of the paper's Algorithm 1, with a
//     certified dual lower bound (Offline);
//   - the paper's online controllers with limited noisy predictions —
//     RHC, CHC and AFHC with the Theorem-3 rounding policy;
//   - rule-based baselines (the paper's LRFU, plus LFU / EMA / static);
//   - workload synthesis (Zipf–Mandelbrot popularity, jitter, drift) and
//     a noisy prediction oracle;
//   - a simulation harness that verifies feasibility and accounts every
//     cost component.
//
// # Quick start
//
//	scn := edgecache.PaperScenario().WithHorizon(50).WithSeed(7)
//	inst, pred, err := scn.Build()
//	// handle err
//	runs, err := edgecache.Compare(context.Background(), inst, pred,
//		[]edgecache.Planner{
//			edgecache.Offline(),
//			edgecache.RHC(10),
//			edgecache.LRFU(),
//		})
//
// Every run entry point is context-first: cancelling the context aborts
// the underlying solves within one solver iteration, and WithSlotBudget
// bounds each solve's wall-clock time with graceful degradation instead
// of failure (see DESIGN.md §7 for the deadline semantics and the
// degradation ladder).
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// the paper's equations to packages.
package edgecache

import (
	"context"
	"fmt"
	"io"
	"time"

	"edgecache/internal/audit"
	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/sim"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

// Re-exported core types. These aliases are the library's data surface;
// the heavy lifting stays in the internal packages.
type (
	// Instance is a fully specified problem (stations, users, demand).
	Instance = model.Instance
	// Demand holds per-slot request rates λ^t in the default dense
	// backing.
	Demand = model.Demand
	// DemandView is the storage-agnostic demand contract: dense (Demand)
	// or CSR-style sparse (SparseDemand) for web-scale catalogues.
	DemandView = model.DemandView
	// SparseDemand stores demand per (t, n) as sorted item lists — memory
	// scales with active entries, not the catalogue size.
	SparseDemand = model.SparseDemand
	// Trajectory is a sequence of per-slot (placement, load split) pairs.
	Trajectory = model.Trajectory
	// CachePlan is a per-slot cache placement x.
	CachePlan = model.CachePlan
	// LoadPlan is a per-slot load split y.
	LoadPlan = model.LoadPlan
	// CostBreakdown decomposes a trajectory's objective value.
	CostBreakdown = model.CostBreakdown
	// Predictor is the noisy limited-lookahead demand oracle.
	Predictor = workload.Predictor
	// Planner plans a trajectory for an instance (offline solver, online
	// controller, or baseline).
	Planner = sim.Policy
	// Run is one planner's evaluated result.
	Run = sim.Result
	// SlotMetrics are the per-slot series of a Run.
	SlotMetrics = sim.SlotMetrics
	// WorkloadStats summarises a demand tensor (volume, head mass, skew).
	WorkloadStats = workload.DemandStats
	// AuditReport is the differential auditor's verdict on a run (see
	// WithAudit): the violations found plus an independently recomputed
	// cost breakdown.
	AuditReport = audit.Report
	// AuditViolation is one failed auditor invariant.
	AuditViolation = audit.Violation
)

// Re-exported fault-injection types (see WithFaults). A FaultSchedule
// composes deterministic, seed-driven injectors; build one directly from
// these types or parse the compact spec DSL with ParseFaults.
type (
	// FaultSchedule is a deterministic set of failures to inject into a
	// run: SBS outages, bandwidth/capacity degradation, prediction
	// corruption and solver faults.
	FaultSchedule = fault.Schedule
	// FaultInjector is one failure clause of a FaultSchedule.
	FaultInjector = fault.Injector
	// SBSOutage takes one SBS (or all, SBS = -1) fully offline over
	// [From, To): zero bandwidth, zero cache capacity.
	SBSOutage = fault.Outage
	// BandwidthFault scales an SBS's effective bandwidth over a span —
	// backhaul congestion or partial radio failure.
	BandwidthFault = fault.BandwidthFactor
	// CapacityFault removes cache slots from an SBS over a span, forcing
	// eviction of the overflow.
	CapacityFault = fault.CapacityLoss
	// RandomOutagesFault samples geometric-length outages at a per-slot
	// rate, deterministically from the schedule seed.
	RandomOutagesFault = fault.RandomOutages
	// PredictionFault corrupts the predictor's output (spike, dropout or
	// stale-freeze) without touching the ground-truth demand.
	PredictionFault = fault.Corruption
	// SolverFault makes the window solve at one slot fail (or panic) for
	// a number of attempts, exercising the retry and degradation paths.
	SolverFault = fault.SolverFault
	// CorruptionMode selects how a PredictionFault distorts forecasts.
	CorruptionMode = fault.CorruptionMode
)

// Prediction-corruption modes for PredictionFault.
const (
	// CorruptSpike multiplies predicted rates by the fault's magnitude.
	CorruptSpike = fault.Spike
	// CorruptDropout zeroes predicted rates at the fault's rate.
	CorruptDropout = fault.Dropout
	// CorruptFreeze replaces forecasts with the demand at the fault's
	// first slot — a stale, never-updating predictor.
	CorruptFreeze = fault.Freeze
)

// ParseFaults parses the compact fault-spec DSL: semicolon-separated
// clauses of kind:key=value pairs, e.g.
//
//	outage:n=1,from=10,to=20; bw:n=-1,from=5,factor=0.25; corrupt:mode=spike,from=3,to=8,mag=5
//
// See the jocsim -faults flag documentation for the full grammar.
func ParseFaults(spec string) (*FaultSchedule, error) { return fault.Parse(spec) }

// LoadFaults reads a fault schedule from a JSON file (the format written
// by FaultSchedule's json tags); seed overrides the file's seed when
// non-zero. Pass a spec string instead of a path to parse it directly.
func LoadFaults(arg string, seed uint64) (*FaultSchedule, error) { return fault.FromSpec(arg, seed) }

// Re-exported observability types. Telemetry is observational only: it
// never changes solver behaviour, and the nil handle is a free no-op.
type (
	// Telemetry bundles a structured event sink with a metrics registry;
	// pass it to Simulate / Compare via WithTelemetry to record per-
	// iteration solver events, per-slot controller decisions and per-run
	// summaries. See DESIGN.md §6 for the event schema.
	Telemetry = obs.Telemetry
	// TelemetrySink consumes structured events; implement it to stream
	// telemetry into a custom backend. Implementations must be safe for
	// concurrent use.
	TelemetrySink = obs.Sink
	// TelemetryEvent is one structured record (timestamp, type, fields).
	TelemetryEvent = obs.Event
	// TelemetryFields is an event's type-specific payload.
	TelemetryFields = obs.Fields
	// Metrics is a registry of counters, gauges and timing histograms.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// ObservablePlanner is implemented by planners that accept a
	// telemetry handle (all planners in this package do).
	ObservablePlanner = sim.Observable
	// MetricsHistogram is a value histogram with bucketed quantiles.
	MetricsHistogram = obs.Histogram
	// Tracer records hierarchical spans (run → window solve → solver
	// phase); install it in a context with WithTracer and export with
	// WriteChromeTrace.
	Tracer = obs.Tracer
	// TraceSpan is one span handle; the nil span is a free no-op.
	TraceSpan = obs.Span
	// SpanRecord is one completed span as recorded by a Tracer.
	SpanRecord = obs.SpanRecord
	// FlightRecorder retains the most recent solver iterations and
	// operational events in fixed-size rings (see DefaultFlight).
	FlightRecorder = obs.FlightRecorder
	// FlightSnapshot is a point-in-time copy of a FlightRecorder.
	FlightSnapshot = obs.FlightSnapshot
	// DebugServer is the handle returned by ServeDebug; Close shuts the
	// endpoint down gracefully.
	DebugServer = obs.DebugServer
	// RunCurve bundles a run's convergence and regret curves (see
	// WithCurves).
	RunCurve = sim.Curve
	// GapPoint is one dual-gap observation of a RunCurve.
	GapPoint = sim.GapPoint
)

// NewTelemetry returns a telemetry handle emitting into sink and
// recording metrics into the process-wide default registry.
func NewTelemetry(sink TelemetrySink) *Telemetry { return obs.New(sink, nil) }

// NewJSONLSink returns a sink writing one JSON object per event to w —
// the format behind the binaries' -trace flag. Call Close to flush when
// w buffers.
func NewJSONLSink(w io.Writer) *obs.JSONLSink { return obs.NewJSONL(w) }

// NewTextSink returns a sink rendering events as single human-readable
// lines, optionally filtered to the given event types.
func NewTextSink(w io.Writer, types ...string) *obs.TextSink { return obs.NewText(w, types...) }

// TeeSinks duplicates events to several sinks.
func TeeSinks(sinks ...TelemetrySink) TelemetrySink { return obs.Tee(sinks...) }

// DefaultMetrics returns the process-wide metrics registry every solver
// layer reports into (always on; atomic counters).
func DefaultMetrics() *Metrics { return obs.Default }

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060")
// exposing /debug/vars (expvar, including DefaultMetrics),
// /debug/pprof/ for live profiling of long solves, /metrics in
// Prometheus text format, and /debug/solver (the flight recorder's
// JSON snapshot). It does not block; the handle's Addr reports the
// bound address and Close shuts the server down gracefully.
func ServeDebug(addr string) (*DebugServer, error) { return obs.ServeDebug(addr) }

// NewTracer returns a span tracer. Install it in the run context with
// WithTracer; spans are additionally mirrored into sink as "span"
// events when sink is non-nil. After the run, export the collected
// spans with the tracer's WriteChromeTrace (viewable in Perfetto or
// chrome://tracing) or read them via Records.
func NewTracer(sink TelemetrySink) *Tracer { return obs.NewTracer(sink) }

// WithTracer returns a context carrying the tracer; every solver layer
// below (simulation run, controller versions, window solves, dual
// iteration batches and phases) opens spans on it. A context without a
// tracer makes all span operations free no-ops.
func WithTracer(ctx context.Context, tr *Tracer) context.Context { return obs.WithTracer(ctx, tr) }

// DefaultFlight returns the process-wide solver flight recorder served
// at /debug/solver. It records nothing until installed as a telemetry
// sink, e.g. WithTelemetry(NewTelemetry(TeeSinks(DefaultFlight(), ...))).
func DefaultFlight() *FlightRecorder { return obs.Flight }

// DemandStatistics summarises a demand tensor: total and per-slot volume,
// head mass (how cacheable the catalogue is), Gini skew and temporal
// variability — the quantities to inspect before trusting a workload.
func DemandStatistics(d DemandView) WorkloadStats { return workload.Stats(d) }

// Scenario is a fluent builder for problem instances. The zero value is
// not useful; start from PaperScenario or NewScenario.
type Scenario struct {
	cfg       workload.InstanceConfig
	eta       float64
	transform func(t, n, m, k int, rate float64) float64
	demand    *Demand
	sparse    bool
	topK      int
}

// PaperScenario returns the paper's §V-B simulation setup: one SBS with a
// 5-item cache and bandwidth 30, a 30-item catalogue, 30 user classes,
// 100 slots, β = 100, Zipf–Mandelbrot(0.8, 30) popularity, prediction
// noise η = 0.1.
func PaperScenario() *Scenario {
	return &Scenario{cfg: workload.PaperDefault(), eta: 0.1}
}

// NewScenario returns a scenario with the paper's defaults but the given
// principal dimensions.
func NewScenario(sbs, catalogue, classes, horizon int) *Scenario {
	s := PaperScenario()
	s.cfg.N = sbs
	s.cfg.K = catalogue
	s.cfg.ClassesPerSBS = classes
	s.cfg.T = horizon
	return s
}

// WithHorizon sets the number of slots T.
func (s *Scenario) WithHorizon(t int) *Scenario { s.cfg.T = t; return s }

// WithCatalogue sets the content count K.
func (s *Scenario) WithCatalogue(k int) *Scenario { s.cfg.K = k; return s }

// WithCache sets every SBS's cache capacity C.
func (s *Scenario) WithCache(c int) *Scenario { s.cfg.CacheCap = c; return s }

// WithBandwidth sets every SBS's per-slot bandwidth B.
func (s *Scenario) WithBandwidth(b float64) *Scenario { s.cfg.Bandwidth = b; return s }

// WithBeta sets the cache replacement cost β.
func (s *Scenario) WithBeta(b float64) *Scenario { s.cfg.Beta = b; return s }

// WithJitter sets the slot-to-slot demand variation σ ∈ [0, 1).
func (s *Scenario) WithJitter(j float64) *Scenario { s.cfg.Workload.Jitter = j; return s }

// WithDrift makes content popularity ranks rotate one position every
// period slots (0 disables).
func (s *Scenario) WithDrift(period int) *Scenario { s.cfg.Workload.DriftPeriod = period; return s }

// WithDiurnal modulates total demand sinusoidally: amplitude ∈ [0, 1)
// over the given period in slots — the day/night cycle.
func (s *Scenario) WithDiurnal(amplitude float64, period int) *Scenario {
	s.cfg.Workload.DiurnalAmplitude = amplitude
	s.cfg.Workload.DiurnalPeriod = period
	return s
}

// WithZipf sets the popularity skew α and shift q.
func (s *Scenario) WithZipf(alpha, q float64) *Scenario {
	s.cfg.Workload.Zipf.Alpha = alpha
	s.cfg.Workload.Zipf.Q = q
	return s
}

// WithDensity sets the per-class demand density cap (d_m ~ U[0, max]).
func (s *Scenario) WithDensity(maxDensity float64) *Scenario {
	s.cfg.Workload.MaxDensity = maxDensity
	return s
}

// WithSBSWeightRatio sets ŵ = ratio·ω (0 = SBS operating cost ignored).
func (s *Scenario) WithSBSWeightRatio(ratio float64) *Scenario {
	s.cfg.OmegaSBSRatio = ratio
	return s
}

// WithNoise sets the prediction noise level η ∈ [0, 1).
func (s *Scenario) WithNoise(eta float64) *Scenario { s.eta = eta; return s }

// WithSeed makes the scenario deterministic under the given seed.
func (s *Scenario) WithSeed(seed uint64) *Scenario { s.cfg.Seed = seed; return s }

// WithDemandTransform post-processes every generated rate λ^t_{m,k}
// through f — the hook for event-driven workloads (flash crowds, outages)
// that the synthetic generator cannot express. f must return a finite,
// non-negative rate.
func (s *Scenario) WithDemandTransform(f func(t, n, m, k int, rate float64) float64) *Scenario {
	s.transform = f
	return s
}

// WithDemand replaces the synthetic workload with an externally supplied
// demand tensor (e.g. loaded from production logs via ReadDemandCSV). The
// tensor's shape must match the scenario's dimensions at Build time.
func (s *Scenario) WithDemand(d *Demand) *Scenario { s.demand = d; return s }

// WithSparse switches the generated workload to the sparse demand
// representation, truncated to the topK most popular contents per
// (slot, SBS). Memory then scales with T·N·M·topK instead of T·N·M·K,
// which is what makes web-scale catalogues (K ~ 10⁶) buildable at all;
// pair it with SolveSharded so the solver side scales the same way.
// topK ≥ K (or ≤ 0) keeps the full catalogue but still stores it
// sparsely.
func (s *Scenario) WithSparse(topK int) *Scenario {
	s.sparse = true
	s.topK = topK
	return s
}

// Build materialises the instance and its prediction oracle.
func (s *Scenario) Build() (*Instance, *Predictor, error) {
	var genOpts []workload.Option
	if s.sparse {
		genOpts = append(genOpts, workload.WithSparse(s.topK))
	}
	in, err := workload.BuildInstanceWith(s.cfg, genOpts...)
	if err != nil {
		return nil, nil, fmt.Errorf("edgecache: %w", err)
	}
	if s.demand != nil {
		in.Demand = s.demand
		if err := in.Validate(); err != nil {
			return nil, nil, fmt.Errorf("edgecache: external demand: %w", err)
		}
	}
	if s.transform != nil {
		in.Demand.Map(s.transform)
	}
	pred, err := workload.NewPredictor(in.Demand, s.eta, s.cfg.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("edgecache: %w", err)
	}
	return in, pred, nil
}

// SolverOption tunes the offline primal-dual solver returned by Offline.
type SolverOption func(*core.Options)

// MaxIterations caps the dual-ascent iteration budget L (default 60).
func MaxIterations(n int) SolverOption { return func(o *core.Options) { o.MaxIter = n } }

// Tolerance sets the relative duality-gap stopping tolerance ε
// (paper: 1e-4).
func Tolerance(eps float64) SolverOption { return func(o *core.Options) { o.Epsilon = eps } }

// StepAlpha sets α in the diminishing dual step δ_l = 1/(1+αl)
// (default 0.05); smaller values take larger steps for longer.
func StepAlpha(a float64) SolverOption { return func(o *core.Options) { o.StepAlpha = a } }

// WarmStart warm-starts the dual multipliers μ (shape [T][N][M_n·K]);
// nil starts from zero. Passing the (shifted) multipliers of a previous
// solve of a nearby instance typically cuts the iteration count
// several-fold.
func WarmStart(mu [][][]float64) SolverOption {
	return func(o *core.Options) { o.InitialMu = mu }
}

// Offline returns the paper's offline primal-dual solver (Algorithm 1) as
// a planner: the full-information reference every online algorithm is
// measured against. With no options it uses the paper's defaults; pass
// MaxIterations, Tolerance, StepAlpha or WarmStart to tune it.
func Offline(opts ...SolverOption) Planner {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return sim.Offline(o)
}

type (
	// ShardedResult is the aggregate outcome of SolveSharded.
	ShardedResult = core.ShardedResult
	// ShardSolution is one SBS's shard of a ShardedResult, with its
	// trajectory stored sparsely (cached items and their load splits).
	ShardSolution = core.ShardSolution
)

// SolveSharded runs the offline solver (Algorithm 1) one SBS shard at a
// time over a bounded worker pool: each SBS becomes an independent
// compact sub-instance over its own candidate set — the contents it ever
// sees demand for plus its initial cache — so solver memory scales with
// demand rather than with N·K. The result keeps per-shard trajectories in
// sparse form; call ShardedResult.Densify for a dense trajectory when the
// instance is small enough to afford one. This is the entry point for
// web-scale instances built with Scenario.WithSparse; WarmStart is not
// supported here (global multiplier planes do not map onto shards).
func SolveSharded(ctx context.Context, in *Instance, opts ...SolverOption) (*ShardedResult, error) {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.SolveSharded(ctx, in, o)
}

// PeakRSS returns the process's peak resident set size in bytes, and
// whether the exact kernel figure (Linux VmHWM) was available — the
// memory yardstick of the web-scale demos. The fallback is the Go
// runtime's own high-water mark, which ignores non-runtime allocations.
func PeakRSS() (uint64, bool) { return obs.PeakRSSBytes() }

// RHC returns Receding Horizon Control with prediction window w
// (Algorithm 2; commits one slot per solve).
func RHC(w int) Planner { return sim.Online(online.RHC(w)) }

// CHC returns Committed Horizon Control with window w and commitment
// level r (Algorithm 3; averages r staggered solvers and rounds at
// ρ = (3−√5)/2 per Theorem 3).
func CHC(w, r int) Planner { return sim.Online(online.CHC(w, r)) }

// AFHC returns Averaging Fixed Horizon Control (CHC with r = w).
func AFHC(w int) Planner { return sim.Online(online.AFHC(w)) }

// FHC returns plain Fixed Horizon Control: re-solve every w slots and
// commit the whole window, with no staggered averaging — the classic
// baseline AFHC improves on.
func FHC(w int) Planner { return sim.Online(online.FHC(w)) }

// LRFU returns the paper's §V-A baseline: cache the top-C contents by the
// current slot's aggregate request volume.
func LRFU() Planner { return sim.FromBaseline(baseline.NewLRFU()) }

// LFU returns the cumulative-frequency baseline.
func LFU() Planner { return sim.FromBaseline(baseline.NewLFU()) }

// EMACache returns the exponentially smoothed recency/frequency baseline
// with the given decay ∈ [0, 1].
func EMACache(decay float64) Planner { return sim.FromBaseline(baseline.NewEMA(decay)) }

// StaticTop returns the never-replace baseline (top-C by horizon-average
// demand).
func StaticTop() Planner { return sim.FromBaseline(&baseline.StaticTop{}) }

// NoCaching returns the null policy that serves everything from the BS.
func NoCaching() Planner { return sim.FromBaseline(baseline.NoCaching{}) }

// ClassicLRU evaluates a request-driven least-recently-used cache under
// the paper's cost model: a Poisson request trace is sampled from the
// instance demand (deterministically from seed) and streamed through the
// cache; the resulting placements are costed like any other policy.
func ClassicLRU(seed uint64) Planner {
	return sim.FromBaseline(trace.NewPolicyAdapter(trace.NewLRU(), seed))
}

// ClassicFIFO evaluates a request-driven FIFO cache (see ClassicLRU).
func ClassicFIFO(seed uint64) Planner {
	return sim.FromBaseline(trace.NewPolicyAdapter(trace.NewFIFO(), seed))
}

// ClassicLFU evaluates a request-driven perfect-LFU cache (see ClassicLRU).
func ClassicLFU(seed uint64) Planner {
	return sim.FromBaseline(trace.NewPolicyAdapter(trace.NewLFU(), seed))
}

// ClassicLRFU evaluates the original LRFU of Lee et al. with decay λ (see
// ClassicLRU). λ → 0 approaches LFU, large λ approaches LRU.
func ClassicLRFU(lambda float64, seed uint64) Planner {
	return sim.FromBaseline(trace.NewPolicyAdapter(trace.NewClassicLRFU(lambda), seed))
}

// ReadDemandCSV loads a long-format demand CSV (header
// t,sbs,class,content,rate) into a tensor of the given shape — the entry
// point for evaluating the library on real request-rate logs; pair it
// with Scenario.WithDemand.
func ReadDemandCSV(r io.Reader, t int, classes []int, k int) (*Demand, error) {
	return workload.ReadDemandCSV(r, t, classes, k)
}

// WriteDemandCSV serialises a demand tensor in the format ReadDemandCSV
// consumes.
func WriteDemandCSV(w io.Writer, d DemandView) error {
	return workload.WriteDemandCSV(w, d)
}

// RunOption configures a Simulate or Compare call. Options are
// orthogonal and composable; zero options reproduce the plain
// feasibility-checked simulation.
type RunOption func(*sim.Config)

// WithTelemetry threads a telemetry handle into the planners' solvers,
// recording per-iteration solver events, per-slot controller decisions
// and per-run summaries. A nil handle is a free no-op.
func WithTelemetry(tel *Telemetry) RunOption {
	return func(c *sim.Config) { c.Telemetry = tel }
}

// WithSlotBudget bounds each solve's wall-clock time to d. A solver that
// overruns its budget degrades gracefully instead of failing: it commits
// its best feasible iterate when the duality gap is finite, and otherwise
// falls back to a rule-based plan (LRFU placement with the reactive
// optimal load split, or the planner given to WithFallback). Degraded
// solves emit a solve_degraded telemetry event and bump the
// solver.degraded counter. See DESIGN.md §7.
func WithSlotBudget(d time.Duration) RunOption {
	return func(c *sim.Config) { c.SlotBudget = d }
}

// WithFallback replaces the default LRFU fallback used when a budgeted
// solve overruns with no usable iterate. The planner is invoked on the
// window's instance with no predictor; it must be cheap and must not
// itself require a solver (a baseline such as LRFU, LFU or StaticTop).
func WithFallback(p Planner) RunOption {
	return func(c *sim.Config) {
		c.Fallback = func(ctx context.Context, win *model.Instance) (model.Trajectory, error) {
			return p.Plan(ctx, win, nil)
		}
	}
}

// WithFaults injects a deterministic fault schedule into the run: SBS
// outages and degradations become the instance's effective per-slot
// constraints, prediction corruption is hooked into the predictor, and
// the online controllers arm solver faults, event-driven replans and
// retry-with-backoff. The base instance is never mutated; a nil or
// empty schedule reproduces the failure-free run exactly. Under
// outages the committed trajectory stays feasible against the
// *effective* instance, but the paper's Theorem 3 competitive bound no
// longer applies (DESIGN.md §10).
func WithFaults(s *FaultSchedule) RunOption {
	return func(c *sim.Config) { c.Faults = s }
}

// WithCurves captures each run's convergence and regret curves into
// Run.Curve: the solver's dual-gap trajectory (LB/UB/gap per dual
// iteration), the committed cumulative cost per slot, and — for online
// controllers — the relaxed pre-rounding objective anchoring the
// Theorem 3 comparison. Observational: it taps the telemetry stream
// without changing solver behaviour.
func WithCurves() RunOption {
	return func(c *sim.Config) { c.Curves = true }
}

// WithAudit re-derives everything each committed run claims (the
// differential auditor, DESIGN.md §9): every slot's constraints, the
// integrality of committed placements and an independent recomputation
// of the cost breakdown. The report lands in Run.Audit; violations are
// additionally published as audit_violation telemetry events and the
// audit.violations counter. The audit is observational — a violating
// run still returns its result — and costs well under 5% of a solve.
func WithAudit() RunOption {
	return func(c *sim.Config) { c.Audit = true }
}

// Simulate plans with one planner, verifies feasibility and accounts all
// cost components. Cancelling ctx aborts the underlying solves within
// one solver iteration; the returned error then wraps ctx.Err().
func Simulate(ctx context.Context, in *Instance, pred *Predictor, p Planner, opts ...RunOption) (*Run, error) {
	var cfg sim.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return sim.RunWith(ctx, in, pred, p, cfg)
}

// Compare runs several planners on the same instance and predictions,
// returning results in argument order. Options apply to every planner.
// Cancelling ctx aborts the in-flight solve within one iteration and
// skips the remaining planners.
func Compare(ctx context.Context, in *Instance, pred *Predictor, planners []Planner, opts ...RunOption) ([]*Run, error) {
	runs := make([]*Run, len(planners))
	for i, p := range planners {
		r, err := Simulate(ctx, in, pred, p, opts...)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}
