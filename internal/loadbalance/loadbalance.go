// Package loadbalance solves the paper's load-balancing subproblem P2
// (eq. 19). For fixed dual multipliers μ the problem separates per SBS and
// slot into
//
//	min  ( A − Σ_i w_i y_i )²  +  ( Σ_i ŵ_i y_i )²  +  Σ_i μ_i y_i
//	s.t. 0 ≤ y_i ≤ u_i,   Σ_i λ_i y_i ≤ B,
//
// over the flattened (class, content) coordinates i = m·K + k, where
// w_i = ω_m λ_i and ŵ_i = ŵ_m λ_i, and A = Σ_i w_i is the all-BS load.
// The first term is f_t, the second g_t, and the linear term comes from
// relaxing the coupling y ≤ x.
//
// The objective is convex and L-smooth with the exact constant
// L = 2(‖w‖² + ‖ŵ‖²); the solver is FISTA (package convex) over the
// box-and-knapsack set projected by package projection.
//
// The same machinery also recovers the best feasible load split for a
// fixed placement x (OptimalGivenPlacement): set μ = 0 and tighten the
// upper bounds to u_i = x_{n,k}. That routine is used to turn the
// primal-dual iterates into feasible solutions, and gives the LRFU
// baseline its (most favourable) load split.
package loadbalance

import (
	"fmt"
	"math"
	"sort"
	"time"

	"edgecache/internal/convex"
	"edgecache/internal/mat"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/projection"
)

// Always-on P2 metrics (atomic; read by -metrics and /debug/vars).
var (
	mSlotSolves = obs.Default.Counter("loadbalance.p2_solves")
	mGradSteps  = obs.Default.Counter("loadbalance.p2_gradient_steps")
	mSolveTime  = obs.Default.Timer("loadbalance.p2_solve")

	// The dual kernel's pin certificate (kernel.go): view coordinates of
	// its solves, those held out of the iteration as priced out, and the
	// solves that reran over the full view when the certificate broke.
	mViewCoords   = obs.Default.Counter("loadbalance.p2_view_coords")
	mPinnedCoords = obs.Default.Counter("loadbalance.p2_pinned_coords")
	mPinFallbacks = obs.Default.Counter("loadbalance.p2_pin_fallbacks")
)

// SlotProblem is P2 for one (SBS, slot) pair over M·K coordinates.
type SlotProblem struct {
	// M and K are the class and content counts.
	M, K int
	// Lambda is the flat rate vector λ_i, length M·K.
	Lambda []float64
	// OmegaBS and OmegaSBS are the per-class weights ω_m and ŵ_m, length M.
	OmegaBS, OmegaSBS []float64
	// Bandwidth is the knapsack budget B.
	Bandwidth float64
	// Mu is the linear dual term (length M·K); nil means zero.
	Mu []float64
	// Upper are per-coordinate upper bounds u_i ∈ [0, 1] (length M·K);
	// nil means all ones. Fixing a placement passes u_i = x_{n,k}.
	Upper []float64
}

func (p *SlotProblem) validate() error {
	n := p.M * p.K
	if p.M <= 0 || p.K <= 0 {
		return fmt.Errorf("loadbalance: M = %d, K = %d, want > 0", p.M, p.K)
	}
	if len(p.Lambda) != n {
		return fmt.Errorf("loadbalance: lambda has %d entries, want %d", len(p.Lambda), n)
	}
	if len(p.OmegaBS) != p.M || len(p.OmegaSBS) != p.M {
		return fmt.Errorf("loadbalance: omega lengths (%d, %d), want %d", len(p.OmegaBS), len(p.OmegaSBS), p.M)
	}
	if p.Bandwidth < 0 {
		return fmt.Errorf("loadbalance: bandwidth = %g, want ≥ 0", p.Bandwidth)
	}
	if p.Mu != nil && len(p.Mu) != n {
		return fmt.Errorf("loadbalance: mu has %d entries, want %d", len(p.Mu), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("loadbalance: upper has %d entries, want %d", len(p.Upper), n)
	}
	return nil
}

// Objective evaluates the slot objective at y.
func (p *SlotProblem) Objective(y []float64) float64 {
	f, g := p.OperatingCosts(y)
	obj := f + g
	if p.Mu != nil {
		obj += mat.Dot(p.Mu, y)
	}
	return obj
}

// OperatingCosts returns the f (BS) and g (SBS) components at y.
func (p *SlotProblem) OperatingCosts(y []float64) (f, g float64) {
	var u, v, a float64
	for m := 0; m < p.M; m++ {
		base := m * p.K
		var served float64
		for k := 0; k < p.K; k++ {
			served += p.Lambda[base+k] * y[base+k]
		}
		var total float64
		for k := 0; k < p.K; k++ {
			total += p.Lambda[base+k]
		}
		u += p.OmegaBS[m] * served
		a += p.OmegaBS[m] * total
		v += p.OmegaSBS[m] * served
	}
	return (a - u) * (a - u), v * v
}

// Solve minimises the slot objective to tolerance and returns the optimal
// y (length M·K) and its objective value. start, when non-nil, warm-starts
// the iteration (it is projected onto the feasible set first); the
// primal-dual loop passes the previous iterate to cut solve time sharply.
func (p *SlotProblem) Solve(start []float64, opts convex.Options) ([]float64, float64, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	n := p.M * p.K
	if start != nil && len(start) != n {
		return nil, 0, fmt.Errorf("loadbalance: start has %d entries, want %d", len(start), n)
	}

	// Precompute w, ŵ and A.
	w := make([]float64, n)
	wh := make([]float64, n)
	var a float64
	for m := 0; m < p.M; m++ {
		base := m * p.K
		for k := 0; k < p.K; k++ {
			w[base+k] = p.OmegaBS[m] * p.Lambda[base+k]
			wh[base+k] = p.OmegaSBS[m] * p.Lambda[base+k]
			a += w[base+k]
		}
	}

	lo := make([]float64, n)
	hi := make([]float64, n)
	if p.Upper != nil {
		copy(hi, p.Upper)
		for i, v := range hi {
			hi[i] = mat.Clamp(v, 0, 1)
		}
	} else {
		for i := range hi {
			hi[i] = 1
		}
	}

	prob := convex.Problem{
		Func: func(y []float64) float64 {
			u := mat.Dot(w, y)
			v := mat.Dot(wh, y)
			obj := (a-u)*(a-u) + v*v
			if p.Mu != nil {
				obj += mat.Dot(p.Mu, y)
			}
			return obj
		},
		Grad: func(y, grad []float64) {
			u := mat.Dot(w, y)
			v := mat.Dot(wh, y)
			cu := -2 * (a - u)
			cv := 2 * v
			for i := range grad {
				grad[i] = cu*w[i] + cv*wh[i]
				if p.Mu != nil {
					grad[i] += p.Mu[i]
				}
			}
		},
		Project: func(dst, z []float64) ([]float64, error) {
			return projection.BoxKnapsack(dst, z, lo, hi, p.Lambda, p.Bandwidth)
		},
	}

	if opts.Lipschitz <= 0 {
		// Exact smoothness constant of the two rank-one quadratics; the
		// linear term contributes nothing. Clamp away zero for the fully
		// degenerate (all-weights-zero) case, where any step converges.
		nw := mat.Norm2(w)
		nh := mat.Norm2(wh)
		opts.Lipschitz = math.Max(2*(nw*nw+nh*nh), 1e-9)
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 3000
	}
	if opts.StepTol == 0 {
		opts.StepTol = 1e-10
	}

	x0 := start
	if x0 == nil {
		x0 = make([]float64, n)
	}
	solveStart := time.Now()
	res, err := convex.Minimize(prob, x0, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("loadbalance: %w", err)
	}
	mSlotSolves.Inc()
	mGradSteps.Add(int64(res.Iterations))
	mSolveTime.Observe(time.Since(solveStart))
	return res.X, res.Value, nil
}

// ForInstance builds the slot problem of (t, n) from an instance. mu and
// upper may be nil (zero duals, unit bounds).
func ForInstance(in *model.Instance, t, n int, mu, upper []float64) *SlotProblem {
	return &SlotProblem{
		M:         in.Classes[n],
		K:         in.K,
		Lambda:    in.Demand.CopySlot(nil, t, n),
		OmegaBS:   in.OmegaBS[n],
		OmegaSBS:  in.OmegaSBS[n],
		Bandwidth: in.BandwidthAt(t, n),
		Mu:        mu,
		Upper:     upper,
	}
}

// OptimalGivenPlacement returns the cost-minimal feasible load split for
// slot t when the placement x is fixed: the coupling y ≤ x becomes the
// upper bound, μ = 0, and the bandwidth knapsack applies. This is the
// primal-recovery step of Algorithm 1 and the fair load split handed to
// the baselines.
//
// When every ŵ_m is zero (the paper's headline setup) the objective
// reduces to (A − Σ w_i y_i)², which is minimised by maximising the served
// weighted load — an exact fractional knapsack solved greedily by the
// ratio w_i/λ_i = ω_m. Otherwise the FISTA path is used.
func OptimalGivenPlacement(in *model.Instance, t int, x model.CachePlan, opts convex.Options) (model.LoadPlan, error) {
	y := model.NewLoadPlan(in.Classes, in.K)
	for n := 0; n < in.N; n++ {
		if allZero(in.OmegaSBS[n]) {
			greedyGivenPlacement(in, t, n, x[n], y[n])
			continue
		}
		upper := make([]float64, in.Classes[n]*in.K)
		for m := 0; m < in.Classes[n]; m++ {
			copy(upper[m*in.K:(m+1)*in.K], x[n])
		}
		sp := ForInstance(in, t, n, nil, upper)
		sol, _, err := sp.Solve(nil, opts)
		if err != nil {
			return nil, fmt.Errorf("loadbalance: slot %d SBS %d: %w", t, n, err)
		}
		for m := 0; m < in.Classes[n]; m++ {
			copy(y[n][m], sol[m*in.K:(m+1)*in.K])
		}
	}
	return y, nil
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// greedyGivenPlacement fills yn with the exact fractional-knapsack optimum
// for ŵ = 0: serve cached demand in decreasing ω_m until the bandwidth is
// exhausted. Ties in ω are broken by class index for determinism.
// Zero-rate cached items are always served — they add no load and save
// their (zero) cost — even once the bandwidth is spent.
func greedyGivenPlacement(in *model.Instance, t, n int, xn []float64, yn [][]float64) {
	order := make([]int, in.Classes[n])
	for m := range order {
		order[m] = m
	}
	omega := in.OmegaBS[n]
	sort.SliceStable(order, func(i, j int) bool { return omega[order[i]] > omega[order[j]] })
	remaining := in.BandwidthAt(t, n)
	for _, m := range order {
		for k := 0; k < in.K; k++ {
			if xn[k] < 0.5 {
				continue
			}
			rate := in.Demand.At(t, n, m, k)
			if rate <= 0 {
				yn[m][k] = 1 // free to serve: zero load, zero cost
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
