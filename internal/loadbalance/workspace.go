package loadbalance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"edgecache/internal/convex"
	"edgecache/internal/mat"
	"edgecache/internal/model"
	"edgecache/internal/parallel"
)

// Workspace is the zero-reallocation P2 solver state of one primal-dual
// run. Everything that the ~MaxIter × T × N inner solves of Algorithm 1
// re-derive in the naive path — the vectors w and ŵ, the scalar A, the
// exact Lipschitz constant, the greedy recovery order, the positions with
// demand, the kernel scratch and the warm-started iterate itself —
// depends only on the instance (λ, ω), not on the dual multipliers μ. A
// workspace computes it once per Bind and then solves dual iterations and
// feasibility recoveries with zero steady-state heap allocations,
// scheduling the (slot, SBS) subproblems as one flat work list on the
// shared worker pool. A dual solve of a slot with ŵ ≡ 0 is the closed
// form (exact.go) where its point fits the bandwidth; every other solve,
// dual and recovery, is the greedy recovery at ŵ ≡ 0 or one run of the
// dual kernel (kernel.go) over coordinates read from the slot's own rows.
//
// The kernel and the greedy are bit-for-bit identical to the reference
// path (SlotProblem.Solve / OptimalGivenPlacement): the same float64
// operation sequence runs over precomputed inputs, warm starts between
// dual iterations carry the previous iterate by keeping it in place
// instead of copying plans, and the total objective is accumulated in
// the sequential order (per slot over SBSs, then over slots). The closed
// form reaches the reference's minimum to rounding and depends on the
// slot's instance data and μ alone.
//
// A workspace is single-solve state: Bind and the solve methods must not
// be called concurrently, though each solve internally parallelises over
// its (t, n) grain.
type Workspace struct {
	in    *model.Instance
	slots []slotState // indexed t*N + n
	objs  []float64   // per-slot objectives of the last SolveDual
	zeros []float64   // shared all-zero plane (never written)

	// per-call bindings for the closure-free dispatch functions
	mu      [][][]float64
	opts    convex.Options
	recX    []model.CachePlan
	recTraj model.Trajectory
	dualFn  func(i int) error
	recFn   func(i int) error
}

// slotState is the persistent P2 state of one (slot, SBS) pair: its dense
// (class, content) rows of length dim = m·k, and the kernel's scratch.
type slotState struct {
	t, n   int
	m, k   int
	dim    int
	lambda []float64 // owned dense copy of the demand plane
	bw     float64

	w, wh  []float64 // ω_m λ_i and ŵ_m λ_i
	a      float64   // A = Σ w
	lip    float64   // the exact Lipschitz constant of the slot objective
	whZero bool      // ŵ ≡ 0: the kernel skips the v-terms
	greedy bool      // OmegaSBS[n] ≡ 0: recovery takes the greedy path
	order  []int     // classes by descending ω (stable) for the greedy

	// act lists the positions with λ ≠ 0, the only ones a solve moves
	// (kernel.go); nil when every position has demand. An all-zero plane
	// has an empty, non-nil act. actBuf is its backing array, grown only
	// for a plane with a zero and kept when act is nil, so a rebind
	// refills it in place.
	act, actBuf []int
	zeros       []float64 // aliases Workspace.zeros: recovery's start and lower bound

	y  []float64 // persistent dual iterate — the warm start
	hi []float64 // recovery upper bounds

	// Kernel scratch: the iterates of a run, the live positions pin
	// leaves, and the coefficients gathered at the positions of a run
	// that does not read the rows directly.
	kx, ky, kt, kraw        []float64
	live                    []int
	lamL, wL, whL, muL, hiL []float64
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
		grown := make([]slotState, total)
		copy(grown, ws.slots[:cap(ws.slots)])
		ws.slots = grown
	} else {
		ws.slots = ws.slots[:total]
	}
	ws.objs = grow(ws.objs, total)

	maxDim := 0
	for n := 0; n < in.N; n++ {
		if d := in.Classes[n] * in.K; d > maxDim {
			maxDim = d
		}
	}
	// zeros is only ever read, so growth preserves its all-zero invariant.
	ws.zeros = grow(ws.zeros, maxDim)

	if ws.dualFn == nil {
		ws.dualFn = func(i int) error {
			s := &ws.slots[i]
			obj, err := s.solveDual(ws.mu[s.t][s.n], ws.opts)
			if err != nil {
				return fmt.Errorf("loadbalance: slot %d SBS %d: %w", s.t, s.n, err)
			}
			ws.objs[i] = obj
			return nil
		}
		ws.recFn = func(i int) error {
			s := &ws.slots[i]
			d := ws.recTraj[s.t]
			xn, yn := ws.recX[s.t][s.n], d.Y[s.n]
			copy(d.X[s.n], xn)
			for _, row := range yn {
				zero(row)
			}
			if err := s.recover(xn, yn, ws.opts); err != nil {
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
	s.lip = lipschitz(s.w, s.wh)
	s.whZero = allZero(s.wh)
	s.greedy = allZero(in.OmegaSBS[n])

	s.y = grow(s.y, dim)
	zero(s.y)
	s.hi = grow(s.hi, dim)
	s.zeros = zeros[:dim]

	// Greedy recovery order: classes by descending ω, stable (ties keep
	// class-index order) — the permutation of the reference sort, by an
	// insertion sort over the few classes that allocates nothing.
	s.order = growInts(s.order, m)
	omega := in.OmegaBS[n]
	for i := range s.order {
		j := i
		for ; j > 0 && omega[i] > omega[s.order[j-1]]; j-- {
			s.order[j] = s.order[j-1]
		}
		s.order[j] = i
	}

	active := 0
	for _, v := range s.lambda {
		if v != 0 {
			active++
		}
	}
	if active == dim {
		s.act = nil
		return
	}
	if s.actBuf == nil || cap(s.actBuf) < active {
		s.actBuf = make([]int, 0, dim)
	}
	act := s.actBuf[:0]
	for i, v := range s.lambda {
		if v != 0 {
			act = append(act, i)
		}
	}
	s.act = act
}

// Release drops the workspace's reference to the bound instance and keeps
// every buffer, so an idle workspace does not keep its last instance
// reachable (the slot states hold copies of their rows, not views). Bind
// must run again before the next solve.
func (ws *Workspace) Release() { ws.in = nil }

// gatherAt copies src at the positions idx into buf (len(buf) ≥ len(idx))
// and returns the filled prefix.
func gatherAt(buf, src []float64, idx []int) []float64 {
	buf = buf[:len(idx)]
	for i, j := range idx {
		buf[i] = src[j]
	}
	return buf
}

// growInts is grow for index slices.
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

// checkMu reports whether mu is a μ row the dual kernel is exact for: one
// finite, non-negative entry per coordinate (kernel.go).
func (s *slotState) checkMu(mu []float64) error {
	if len(mu) != s.dim {
		return fmt.Errorf("loadbalance: mu[%d][%d] has %d entries, want %d", s.t, s.n, len(mu), s.dim)
	}
	for i, v := range mu {
		if !(v >= 0 && v <= math.MaxFloat64) {
			return fmt.Errorf("loadbalance: mu[%d][%d][%d] = %g, want finite and ≥ 0", s.t, s.n, i, v)
		}
	}
	return nil
}

// solveDual runs this slot's dual solve under the μ row mu. On a slot
// with ŵ ≡ 0 it first tries the closed form (exact.go); when that is not
// certified, or ŵ ≢ 0, it runs the dual kernel warm-started from s.y. It
// leaves the solution in s.y for the next iteration and returns the
// objective value. opts is already checked, and so is mu (checkMu).
func (s *slotState) solveDual(mu []float64, opts convex.Options) (float64, error) {
	if s.whZero {
		start := time.Now()
		if value, ok := s.exactDual(mu); ok {
			mExactSolves.Inc()
			mSlotSolves.Inc()
			mSolveTime.Observe(time.Since(start))
			return value, nil
		}
		mExactFallbacks.Inc()
	}
	return s.kernelDual(mu, opts)
}

// kernelDual runs this slot's warm-started dual solve under the μ row mu
// on the dual kernel, over the live coordinates pin leaves or, from the
// step where the pin certificate breaks, over act. It leaves the iterate
// in s.y and returns the objective value.
func (s *slotState) kernelDual(mu []float64, opts convex.Options) (float64, error) {
	start := time.Now()
	k := s.pin(mu)
	res, err := s.fista(&k, s.y, opts)
	if err != nil {
		return 0, err
	}
	active := s.dim
	if s.act != nil {
		active = len(s.act)
	}
	mViewCoords.Add(int64(active))
	if k.pinned {
		mPinnedCoords.Add(int64(active - len(k.idx)))
	}
	if k.idx == nil {
		copy(s.y, res.X)
	} else {
		// A pinned coordinate keeps its +0 warm start.
		for i, j := range k.idx {
			s.y[j] = res.X[i]
		}
	}
	mSlotSolves.Inc()
	mGradSteps.Add(int64(res.Iterations))
	mSolveTime.Observe(time.Since(start))
	return res.Value, nil
}

// recover computes the optimal load split for the fixed placement row xn
// (length K) into yn — OptimalGivenPlacement for one (t, n). yn must be
// all zero on entry; the dual iterate s.y is untouched.
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
	start := time.Now()
	k := s.coords(s.act, nil, s.hi)
	res, err := s.fista(&k, s.zeros, opts)
	if err != nil {
		return err
	}
	mSlotSolves.Inc()
	mGradSteps.Add(int64(res.Iterations))
	mSolveTime.Observe(time.Since(start))
	if k.idx == nil {
		for m := 0; m < s.m; m++ {
			copy(yn[m], res.X[m*s.k:(m+1)*s.k])
		}
	} else {
		for i, j := range k.idx {
			yn[j/s.k][j%s.k] = res.X[i]
		}
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
// accumulated in the sequential reference order. mu must hold one row of
// finite, non-negative multipliers per (t, n); every row is checked
// before any slot is solved, so a rejected mu leaves every iterate as it
// was. Its rows are read but never retained. Zero fields of opts take the standalone setting, as in
// SlotProblem.Solve. Iterates stay inside the workspace: read them with
// DualY or materialise plans with ExportPlans.
func (ws *Workspace) SolveDual(ctx context.Context, mu [][][]float64, opts convex.Options) (float64, error) {
	if len(mu) != ws.in.T {
		return 0, fmt.Errorf("loadbalance: mu covers %d slots, want %d", len(mu), ws.in.T)
	}
	for t, row := range mu {
		if len(row) != ws.in.N {
			return 0, fmt.Errorf("loadbalance: mu[%d] covers %d SBSs, want %d", t, len(row), ws.in.N)
		}
	}
	for i := range ws.slots {
		s := &ws.slots[i]
		if err := s.checkMu(mu[s.t][s.n]); err != nil {
			return 0, err
		}
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
// on the shared pool. It writes into dst, which the caller owns and which
// must be shaped for the bound instance (model.NewTrajectory): dst[t].X
// receives a copy of xPlans[t] and dst[t].Y the recovered load split, so
// a caller that reuses dst recovers without allocating. Zero fields of
// opts take the standalone setting. The dual iterates are untouched.
func (ws *Workspace) Recover(ctx context.Context, xPlans []model.CachePlan, dst model.Trajectory, opts convex.Options) error {
	in := ws.in
	if len(xPlans) != in.T {
		return fmt.Errorf("loadbalance: %d placements for horizon %d", len(xPlans), in.T)
	}
	if len(dst) != in.T {
		return fmt.Errorf("loadbalance: trajectory covers %d slots, want %d", len(dst), in.T)
	}
	for t, d := range dst {
		if err := in.CheckCacheShape(d.X); err != nil {
			return fmt.Errorf("loadbalance: slot %d: %w", t, err)
		}
		if err := in.CheckLoadShape(d.Y); err != nil {
			return fmt.Errorf("loadbalance: slot %d: %w", t, err)
		}
	}
	opts, err := withDefaults(opts)
	if err != nil {
		return fmt.Errorf("loadbalance: %w", err)
	}
	ws.recX, ws.recTraj, ws.opts = xPlans, dst, opts
	err = parallel.For(ctx, len(ws.slots), 0, ws.recFn)
	ws.recX, ws.recTraj = nil, nil
	return err
}
