package loadbalance

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"edgecache/internal/convex"
	"edgecache/internal/mat"
	"edgecache/internal/model"
	"edgecache/internal/parallel"
	"edgecache/internal/projection"
)

// Workspace is the zero-reallocation P2 solver state of one primal-dual
// run. Everything that the ~MaxIter × T × N inner solves of Algorithm 1
// re-derive in the naive path — the vectors w and ŵ, the scalar A, the
// exact Lipschitz constant, the greedy recovery order, the FISTA and
// projection scratch and the warm-started iterate itself — depends only on
// the instance (λ, ω), not on the dual multipliers μ. A workspace computes
// it once per Bind and then solves dual iterations and feasibility
// recoveries with zero steady-state heap allocations, scheduling the
// (slot, SBS) subproblems as one flat work list on the shared worker pool.
//
// Numerics are bit-for-bit identical to the reference path
// (SlotProblem.Solve / OptimalGivenPlacement): the same float64 operation
// sequence runs over precomputed inputs, warm starts between dual
// iterations carry the previous iterate by keeping it in place instead of
// copying plans, and the total objective is accumulated in the sequential
// order (per slot over SBSs, then over slots).
//
// A workspace is single-solve state: Bind and the solve methods must not
// be called concurrently, though each solve internally parallelises over
// its (t, n) grain.
type Workspace struct {
	in *model.Instance
	// slots is indexed t*N + n. Pointers, because each slot's prob holds
	// method values bound to the slot's address.
	slots []*slotState
	objs  []float64 // per-slot objectives of the last SolveDual
	zeros []float64 // shared all-zero lower bound (never written)

	// per-call bindings for the closure-free dispatch functions
	mu      [][][]float64
	opts    convex.Options
	recX    []model.CachePlan
	recTraj model.Trajectory
	dualFn  func(i int) error
	recFn   func(i int) error
}

// slotState is the persistent P2 state of one (slot, SBS) pair.
type slotState struct {
	t, n     int
	m, k     int
	dim      int       // m·k
	lambda   []float64 // owned dense copy of the demand plane
	omega    []float64 // aliases OmegaBS[n]
	omegaSBS []float64 // aliases OmegaSBS[n]
	bw       float64

	w, wh  []float64 // ω_m λ_i and ŵ_m λ_i
	a      float64   // A = Σ w
	whZero bool      // ŵ ≡ 0: skip the v-terms (bit-exact; see gradFunc)
	greedy bool      // OmegaSBS[n] ≡ 0: recovery takes the greedy path
	order  []int     // classes by descending ω (stable) for the greedy

	y        []float64 // persistent dual iterate — the warm start
	recovY   []float64 // recovery iterate (separate: must not clobber y)
	hi       []float64 // recovery upper bounds
	lo       []float64 // aliases Workspace.zeros, view length
	mu       []float64 // μ over the view, bound per solve; nil = zero duals
	hiActive bool      // project onto [lo, vhi] instead of the unit box

	// The active view: every P2 solve of the slot — dual iteration and
	// recovery alike — runs over the coordinates with λ ≠ 0 only. The
	// others cannot move: their gradient is the non-negative μ (or zero),
	// the projection clamps them at the lower bound 0, and they add an
	// exact +0.0 to every dot product, norm and knapsack load of the
	// dense solve. So the FISTA trajectory over the view is bit-identical
	// to the dense one at O(active) cost per iteration. On a dense plane
	// (every coordinate active) the view aliases the dense rows and act is
	// nil; otherwise the view is the gather over act into the compact
	// buffers. The dense test is explicit: an all-zero plane has no active
	// coordinate and is compact, with an empty view.
	//
	// The view relies on the invariant that inactive coordinates of y are
	// exactly 0: bind zeroes them and solves write only active coordinates
	// back.
	act                []int
	dense              bool
	vlam, vw, vwh, vhi []float64 // λ, w, ŵ and recovery bounds over the view
	lamC, wC, whC, hiC []float64 // their gather buffers on compact planes
	muC, yC            []float64 // μ and iterate gather buffers

	// Solvers: the dual kernel (dualFISTA) and its scratch for dual
	// solves, the generic convex path for recovery. The kernel's live
	// gather (kernel.go) holds the view positions a solve iterates over
	// and their coefficients, sized to the view on the slot's first pin.
	// prob carries the slot's oracles and its exact Lipschitz constant,
	// which the kernel's step uses too.
	kx, ky, kt, kraw   []float64
	live               []int
	lamL, wL, whL, muL []float64
	prob               convex.Problem
	cw                 convex.Workspace
}

// NewWorkspace returns an empty workspace; Bind prepares it for an
// instance.
func NewWorkspace() *Workspace { return &Workspace{} }

// Bind prepares the workspace for in: precomputes every per-(t, n)
// invariant and zeroes the dual iterates (warm starts are an intra-solve
// affair; across window solves only the shifted multipliers carry over,
// exactly as in the reference path). Rebinding reuses every buffer whose
// capacity suffices, so one workspace serves the overlapping window solves
// of an FHC version without steady-state allocation. The instance must
// already be validated.
func (ws *Workspace) Bind(in *model.Instance) {
	ws.in = in
	total := in.T * in.N
	if cap(ws.slots) < total {
		grown := make([]*slotState, total)
		copy(grown, ws.slots)
		ws.slots = grown
	} else {
		ws.slots = ws.slots[:total]
	}
	for i, s := range ws.slots {
		if s == nil {
			ws.slots[i] = new(slotState)
		}
	}
	ws.objs = grow(ws.objs, total)

	maxDim := 0
	for n := 0; n < in.N; n++ {
		if d := in.Classes[n] * in.K; d > maxDim {
			maxDim = d
		}
	}
	// zeros is only ever read (it is the shared lower bound), so growth
	// preserves its all-zero invariant.
	ws.zeros = grow(ws.zeros, maxDim)

	if ws.dualFn == nil {
		ws.dualFn = func(i int) error {
			s := ws.slots[i]
			var muRow []float64
			if ws.mu != nil && ws.mu[s.t] != nil {
				muRow = ws.mu[s.t][s.n]
			}
			obj, err := s.solveDual(muRow, ws.opts)
			if err != nil {
				return fmt.Errorf("loadbalance: slot %d SBS %d: %w", s.t, s.n, err)
			}
			ws.objs[i] = obj
			return nil
		}
		ws.recFn = func(i int) error {
			s := ws.slots[i]
			if err := s.recover(ws.recX[s.t][s.n], ws.recTraj[s.t].Y[s.n], ws.opts); err != nil {
				return fmt.Errorf("loadbalance: slot %d SBS %d: %w", s.t, s.n, err)
			}
			return nil
		}
	}

	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			ws.slots[t*in.N+n].bind(in, t, n, ws.zeros)
		}
	}
}

func (s *slotState) bind(in *model.Instance, t, n int, zeros []float64) {
	m, k := in.Classes[n], in.K
	dim := m * k
	s.t, s.n, s.m, s.k, s.dim = t, n, m, k, dim
	s.lambda = in.Demand.CopySlot(s.lambda, t, n)
	s.omega = in.OmegaBS[n]
	s.omegaSBS = in.OmegaSBS[n]
	s.bw = in.BandwidthAt(t, n)

	s.w = grow(s.w, dim)
	s.wh = grow(s.wh, dim)
	var a float64
	for mm := 0; mm < m; mm++ {
		base := mm * k
		for kk := 0; kk < k; kk++ {
			s.w[base+kk] = in.OmegaBS[n][mm] * s.lambda[base+kk]
			s.wh[base+kk] = in.OmegaSBS[n][mm] * s.lambda[base+kk]
			a += s.w[base+kk]
		}
	}
	s.a = a
	s.whZero = allZero(s.wh)
	s.greedy = allZero(in.OmegaSBS[n])

	s.y = grow(s.y, dim)
	zero(s.y)
	s.recovY = grow(s.recovY, dim)
	s.hi = grow(s.hi, dim)
	s.mu = nil
	s.hiActive = false

	// Greedy recovery order: classes by descending ω, stable (ties keep
	// class-index order) — the permutation of the reference sort.
	if cap(s.order) < m {
		s.order = make([]int, m)
	} else {
		s.order = s.order[:m]
	}
	for i := range s.order {
		s.order[i] = i
	}
	omega := s.omega
	order := s.order
	sort.SliceStable(order, func(i, j int) bool { return omega[order[i]] > omega[order[j]] })

	// Active view: gather the λ ≠ 0 coordinates unless all of them are.
	s.act = growInts(s.act, 0)
	for i, v := range s.lambda {
		if v != 0 {
			s.act = append(s.act, i)
		}
	}
	s.dense = len(s.act) == dim
	if s.dense {
		s.act = nil
		s.vlam, s.vw, s.vwh = s.lambda, s.w, s.wh
	} else {
		na := len(s.act)
		s.lamC, s.wC, s.whC = grow(s.lamC, na), grow(s.wC, na), grow(s.whC, na)
		s.vlam, s.vw, s.vwh = s.gather(s.lamC, s.lambda), s.gather(s.wC, s.w), s.gather(s.whC, s.wh)
		s.hiC = grow(s.hiC, na)
		s.muC = grow(s.muC, na)
		s.yC = grow(s.yC, na)
	}
	s.lo = zeros[:len(s.vlam)]

	if s.prob.Func == nil {
		s.prob = convex.Problem{Func: s.objFunc, Grad: s.gradFunc, Project: s.projFunc}
	}
	s.prob.Lipschitz = lipschitz(s.w, s.wh)
}

// gather returns src over the active view: src itself on a dense plane,
// otherwise its active coordinates copied into buf (len(buf) ≥ active).
func (s *slotState) gather(buf, src []float64) []float64 {
	if s.dense {
		return src
	}
	return gatherAt(buf, src, s.act)
}

// gatherAt copies src at the positions idx into buf (len(buf) ≥ len(idx))
// and returns the filled prefix.
func gatherAt(buf, src []float64, idx []int) []float64 {
	buf = buf[:len(idx)]
	for i, j := range idx {
		buf[i] = src[j]
	}
	return buf
}

// scatter writes the view vector src back into the dense row dst; the
// inactive coordinates of dst are left alone.
func (s *slotState) scatter(dst, src []float64) {
	if s.dense {
		copy(dst, src)
		return
	}
	for i, j := range s.act {
		dst[j] = src[i]
	}
}

// growInts is grow for index slices, returning a zero-length slice over
// retained capacity.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// grow returns buf resized to n entries, reallocating only when needed.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// objFunc is SlotProblem.Solve's objective closure over precomputed state,
// evaluated on the active view. When ŵ ≡ 0 the v-terms are skipped: v is
// exactly +0 there (Σ of +0 products), so v² = +0 and adding it cannot
// change any bit of the result ((a−u)² ≥ +0).
func (s *slotState) objFunc(y []float64) float64 {
	u := mat.Dot(s.vw, y)
	var obj float64
	if s.whZero {
		obj = (s.a - u) * (s.a - u)
	} else {
		v := mat.Dot(s.vwh, y)
		obj = (s.a-u)*(s.a-u) + v*v
	}
	if s.mu != nil {
		obj += mat.Dot(s.mu, y)
	}
	return obj
}

// gradFunc is the gradient closure, with the μ branch hoisted out of the
// loop and the cv·ŵ term dropped when ŵ ≡ 0. The skipped term is ±0, so
// results can differ from the reference only in the sign of zero entries —
// which Go's == (and hence reflect.DeepEqual) treats as equal and which no
// downstream arithmetic can amplify (such coordinates have w = λ = 0).
func (s *slotState) gradFunc(y, grad []float64) {
	u := mat.Dot(s.vw, y)
	cu := -2 * (s.a - u)
	w := s.vw[:len(grad)]
	if s.whZero {
		if s.mu != nil {
			mu := s.mu[:len(grad)]
			for i := range grad {
				grad[i] = cu*w[i] + mu[i]
			}
		} else {
			for i := range grad {
				grad[i] = cu * w[i]
			}
		}
		return
	}
	v := mat.Dot(s.vwh, y)
	cv := 2 * v
	wh := s.vwh[:len(grad)]
	if s.mu != nil {
		mu := s.mu[:len(grad)]
		for i := range grad {
			grad[i] = cu*w[i] + cv*wh[i] + mu[i]
		}
	} else {
		for i := range grad {
			grad[i] = cu*w[i] + cv*wh[i]
		}
	}
}

func (s *slotState) projFunc(dst, z []float64) ([]float64, error) {
	if s.hiActive {
		return projection.BoxKnapsack(dst, z, s.lo, s.vhi, s.vlam, s.bw)
	}
	return projection.UnitBoxKnapsack(dst, z, s.vlam, s.bw)
}

// solveDual runs this slot's warm-started dual solve over the active
// view on the dual kernel (kernel.go), leaving the iterate in s.y for the
// next iteration, and returns the objective value. The kernel copies the
// start point in before its first step and writes the final iterate out
// only on success, so the gathered view serves as start and output at
// once. opts is already checked.
func (s *slotState) solveDual(mu []float64, opts convex.Options) (float64, error) {
	if mu != nil && len(mu) != s.dim {
		return 0, fmt.Errorf("loadbalance: mu has %d entries, want %d", len(mu), s.dim)
	}
	y := s.gather(s.yC, s.y)
	s.mu = nil
	if mu != nil {
		s.mu = s.gather(s.muC, mu)
	}
	s.hiActive = false
	start := time.Now()
	res, err := s.dualFISTA(y, y, opts)
	if err != nil {
		return 0, err
	}
	s.scatter(s.y, y)
	mSlotSolves.Inc()
	mGradSteps.Add(int64(res.Iterations))
	mSolveTime.Observe(time.Since(start))
	return res.Value, nil
}

// recover computes the optimal load split for the fixed placement row xn
// (length K) into yn — OptimalGivenPlacement for one (t, n). The dual
// iterate s.y is untouched.
func (s *slotState) recover(xn []float64, yn [][]float64, opts convex.Options) error {
	if s.greedy {
		s.greedyRecover(xn, yn)
		return nil
	}
	for m := 0; m < s.m; m++ {
		base := m * s.k
		for k := 0; k < s.k; k++ {
			s.hi[base+k] = mat.Clamp(xn[k], 0, 1)
		}
	}
	s.vhi = s.gather(s.hiC, s.hi)
	s.mu = nil
	s.hiActive = true
	zero(s.recovY)
	y := s.gather(s.yC, s.recovY)
	start := time.Now()
	res, err := s.cw.Minimize(s.prob, y, y, opts)
	s.hiActive = false
	if err != nil {
		return err
	}
	s.scatter(s.recovY, y)
	mSlotSolves.Inc()
	mGradSteps.Add(int64(res.Iterations))
	mSolveTime.Observe(time.Since(start))
	for m := 0; m < s.m; m++ {
		copy(yn[m], s.recovY[m*s.k:(m+1)*s.k])
	}
	return nil
}

// greedyRecover is greedyGivenPlacement over the precomputed class order.
func (s *slotState) greedyRecover(xn []float64, yn [][]float64) {
	remaining := s.bw
	for _, m := range s.order {
		base := m * s.k
		for k := 0; k < s.k; k++ {
			if xn[k] < 0.5 {
				continue
			}
			rate := s.lambda[base+k]
			if rate <= 0 {
				yn[m][k] = 1 // zero load: free to serve even with no bandwidth left
				continue
			}
			if remaining <= 0 {
				continue
			}
			frac := remaining / rate
			if frac > 1 {
				frac = 1
			}
			yn[m][k] = frac
			remaining -= rate * frac
		}
	}
}

// SolveDual runs one dual iteration's P2 solves — every (t, n) pair, warm-
// started from the previous iteration's iterate — as a flat work list on
// the shared worker pool, and returns the total objective Σ_t Σ_n
// accumulated in the sequential reference order. mu may be nil (zero
// duals); its rows are read but never retained. Zero fields of opts take
// the standalone setting, as in SlotProblem.Solve. Iterates stay inside
// the workspace: read them with DualY or materialise plans with
// ExportPlans.
func (ws *Workspace) SolveDual(ctx context.Context, mu [][][]float64, opts convex.Options) (float64, error) {
	if mu != nil && len(mu) != ws.in.T {
		return 0, fmt.Errorf("loadbalance: mu covers %d slots, want %d", len(mu), ws.in.T)
	}
	opts, err := withDefaults(opts)
	if err != nil {
		return 0, fmt.Errorf("loadbalance: %w", err)
	}
	ws.mu = mu
	ws.opts = opts
	err = parallel.For(ctx, len(ws.slots), 0, ws.dualFn)
	ws.mu = nil
	if err != nil {
		// A bare dispatch-time cancellation from parallel.For needs the
		// package prefix; slot errors arrive already wrapped. Matching with
		// errors.Is (not ==) also catches cause-carrying context errors.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, fmt.Errorf("loadbalance: %w", err)
		}
		return 0, err
	}
	var total float64
	for t := 0; t < ws.in.T; t++ {
		var slot float64
		for n := 0; n < ws.in.N; n++ {
			slot += ws.objs[t*ws.in.N+n]
		}
		total += slot
	}
	return total, nil
}

// DualY returns the live dual iterate of slot (t, n) as a flat
// (class, content) row. It aliases workspace state: valid until the next
// SolveDual or Bind, and must not be mutated.
func (ws *Workspace) DualY(t, n int) []float64 {
	return ws.slots[t*ws.in.N+n].y
}

// ExportPlans materialises the current dual iterates as per-slot load
// plans (freshly allocated; safe to retain).
func (ws *Workspace) ExportPlans() []model.LoadPlan {
	in := ws.in
	plans := make([]model.LoadPlan, in.T)
	for t := range plans {
		plans[t] = model.NewLoadPlan(in.Classes, in.K)
		for n := 0; n < in.N; n++ {
			y := ws.slots[t*in.N+n].y
			for m := 0; m < in.Classes[n]; m++ {
				copy(plans[t][n][m], y[m*in.K:(m+1)*in.K])
			}
		}
	}
	return plans
}

// Recover completes integral placements into a feasible trajectory — the
// UB evaluation of Algorithm 1 — solving the (t, n) recovery subproblems
// on the shared pool. Zero fields of opts take the standalone setting.
// The returned trajectory owns freshly allocated plans; the dual iterates
// are untouched.
func (ws *Workspace) Recover(ctx context.Context, xPlans []model.CachePlan, opts convex.Options) (model.Trajectory, error) {
	in := ws.in
	if len(xPlans) != in.T {
		return nil, fmt.Errorf("loadbalance: %d placements for horizon %d", len(xPlans), in.T)
	}
	opts, err := withDefaults(opts)
	if err != nil {
		return nil, fmt.Errorf("loadbalance: %w", err)
	}
	traj := make(model.Trajectory, in.T)
	for t := range traj {
		traj[t] = model.SlotDecision{X: xPlans[t].Clone(), Y: model.NewLoadPlan(in.Classes, in.K)}
	}
	ws.recX, ws.recTraj, ws.opts = xPlans, traj, opts
	err = parallel.For(ctx, len(ws.slots), 0, ws.recFn)
	ws.recX, ws.recTraj = nil, nil
	if err != nil {
		return nil, err
	}
	return traj, nil
}
