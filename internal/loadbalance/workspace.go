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
// sequence runs over precomputed inputs, warm starts carry the previous
// iterate by keeping it in place instead of copying plans, and the total
// objective is accumulated in the sequential order (per slot over SBSs,
// then over slots).
//
// A workspace is single-solve state: Bind and the solve methods must not
// be called concurrently, though each solve internally parallelises over
// its (t, n) grain.
type Workspace struct {
	in    *model.Instance
	slots []*slotState // index t*N + n; pointers so BindAdvance can rotate
	objs  []float64    // per-slot objectives of the last SolveDual
	zeros []float64    // shared all-zero lower bound (never written)
	rot   []*slotState // BindAdvance rotation scratch
	lam   []float64    // BindAdvance plane-comparison scratch

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
	// exactly 0: bind zeroes them, solves write only active coordinates
	// back, and ImportIterates rejects iterates that break it.
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
	ws.bindShared(in)
	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			ws.slots[t*in.N+n].bind(in, t, n, ws.zeros)
		}
	}
}

// bindShared sizes the slot table and shared buffers for in and installs
// the dispatch closures; per-slot binding is the caller's affair.
func (ws *Workspace) bindShared(in *model.Instance) {
	ws.in = in
	total := in.T * in.N
	if cap(ws.slots) < total {
		grown := make([]*slotState, total)
		copy(grown, ws.slots[:len(ws.slots)])
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
}

// BindAdvance rebinds the workspace for the next overlapping window of a
// receding-horizon run: the new window starts advance slots after the
// previous one, so new slot (t, n) covers the same absolute slot as old
// slot (t+advance, n). Slot states rotate by pointer, and a rotated slot
// whose plane inputs (demand plane, ω vectors, dimensions) are bitwise
// unchanged keeps its entire coefficient precompute — w, ŵ, A, the
// Lipschitz constant, the greedy order, the compact gather — instead of
// re-deriving it, and keeps its dual iterate as the warm start for the new
// window's first dual iteration. Slots that enter the window, change
// shape, or fail the bitwise comparison take the full bind path (zero
// iterate), so a wrong advance degrades to correctness, never to
// corruption.
func (ws *Workspace) BindAdvance(in *model.Instance, advance int) {
	prev := ws.in
	if advance <= 0 || prev == nil || prev.N != in.N || advance >= prev.T ||
		len(ws.slots) != prev.T*prev.N {
		ws.Bind(in)
		return
	}
	n := in.N
	overlap := prev.T - advance
	if overlap > in.T {
		overlap = in.T
	}
	total := in.T * n
	if cap(ws.rot) < total {
		ws.rot = make([]*slotState, total)
	} else {
		ws.rot = ws.rot[:total]
	}
	// Overlapping prefix: pull each surviving state forward by advance.
	for t := 0; t < overlap; t++ {
		copy(ws.rot[t*n:(t+1)*n], ws.slots[(t+advance)*n:(t+advance+1)*n])
	}
	// Fill the tail with the states that rotated out (they rebind fully).
	spare := ws.slots[:advance*n]
	for i := overlap * n; i < total; i++ {
		if len(spare) > 0 {
			ws.rot[i] = spare[0]
			spare = spare[1:]
		} else {
			ws.rot[i] = new(slotState)
		}
	}
	ws.slots, ws.rot = ws.rot, ws.slots[:0]

	ws.bindShared(in)
	for t := 0; t < in.T; t++ {
		for sbs := 0; sbs < n; sbs++ {
			s := ws.slots[t*n+sbs]
			if t < overlap {
				s.bindReuse(ws, in, t, sbs)
			} else {
				s.bind(in, t, sbs, ws.zeros)
			}
		}
	}
}

// bindReuse rebinds a rotated slot for (t, n), keeping the coefficient
// precompute when the plane inputs are bitwise identical to what the slot
// already holds and falling back to a full bind otherwise. The dual
// iterate s.y — that of the same absolute slot, hence of the same active
// view — stays as the warm start.
func (s *slotState) bindReuse(ws *Workspace, in *model.Instance, t, n int) {
	m, k := in.Classes[n], in.K
	if s.n != n || s.m != m || s.k != k {
		s.bind(in, t, n, ws.zeros)
		return
	}
	ws.lam = in.Demand.CopySlot(ws.lam, t, n)
	if !equalFloats(ws.lam, s.lambda) ||
		!equalFloats(in.OmegaBS[n], s.omega[:m]) ||
		!equalFloats(in.OmegaSBS[n], s.omegaSBS[:m]) {
		s.bind(in, t, n, ws.zeros)
		return
	}
	// Same plane: every λ/ω-derived quantity is still exact. Only the
	// slot index, the bandwidth and the bound-lifetime aliases refresh.
	s.t = t
	s.bw = in.BandwidthAt(t, n)
	s.omega = in.OmegaBS[n]
	s.omegaSBS = in.OmegaSBS[n]
	s.lo = ws.zeros[:len(s.vlam)]
	s.mu = nil
	s.hiActive = false
}

// equalFloats reports elementwise float64 equality (==; a NaN anywhere
// reads as unequal, which only costs a rebind).
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
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

// Invalidate discards the workspace's binding: the next Bind or
// BindAdvance rebuilds every per-slot state from scratch instead of
// rotating or reusing it. Callers use it when the bound state may be
// inconsistent — e.g. a panic interrupted a bind midway.
func (ws *Workspace) Invalidate() { ws.in = nil }

// ExportIterates returns deep copies of the per-(t, n) dual load
// iterates, indexed t·N + n — the cross-window warm-start state a
// snapshot must carry (everything else the next bind recomputes from the
// instance). Valid only while the workspace is bound.
func (ws *Workspace) ExportIterates() [][]float64 {
	y := make([][]float64, len(ws.slots))
	for i, s := range ws.slots {
		y[i] = append([]float64(nil), s.y[:s.dim]...)
	}
	return y
}

// ImportIterates loads previously exported dual iterates into a freshly
// bound workspace (restore path): iterate values are taken verbatim, and
// the iterates are the only dual state a solve reads, so restored and
// uninterrupted workspaces are indistinguishable to the solver. Iterates
// come from outside the program, so one with a nonzero entry at a λ = 0
// coordinate — a state no solve can produce, and one the active view
// would silently carry — is rejected.
func (ws *Workspace) ImportIterates(y [][]float64) error {
	if len(y) != len(ws.slots) {
		return fmt.Errorf("loadbalance: %d iterates for %d slots", len(y), len(ws.slots))
	}
	for i, s := range ws.slots {
		if len(y[i]) != s.dim {
			return fmt.Errorf("loadbalance: iterate %d has %d entries, want %d", i, len(y[i]), s.dim)
		}
		for j, v := range y[i] {
			if v != 0 && s.lambda[j] == 0 {
				return fmt.Errorf("loadbalance: iterate %d is %g at zero-demand coordinate %d", i, v, j)
			}
		}
	}
	for i, s := range ws.slots {
		copy(s.y[:s.dim], y[i])
	}
	return nil
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
