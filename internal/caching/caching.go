// Package caching solves the paper's caching subproblem P1 (eq. 18): given
// dual multipliers μ, each SBS independently chooses a placement trajectory
//
//	min  Σ_t ( β Σ_k (x^t_k − x^{t−1}_k)⁺  −  Σ_k ρ^t_k x^t_k )
//	s.t. Σ_k x^t_k ≤ C,  x^t_k ∈ {0, 1},
//
// where ρ^t_k = Σ_m μ^t_{m,k} is the dual reward for caching item k at
// slot t. Theorem 1 of the paper shows the LP relaxation is integral
// (totally unimodular constraints); this package provides both of the
// equivalent exact solvers:
//
//   - Subproblem.SolveLP — the paper's prescription ("simplex method is
//     applied"), via the linearisation of eqs. (21)–(22);
//   - Subproblem.SolveFlow — the same LP recognised as a min-cost flow on a
//     time-expanded cache-slot network, orders of magnitude faster and used
//     by default.
//
// Tests cross-validate the two on random subproblems.
package caching

import (
	"context"
	"fmt"
	"math"
	"time"

	"edgecache/internal/lp"
	"edgecache/internal/mcflow"
	"edgecache/internal/model"
	"edgecache/internal/obs"
)

// Always-on P1 metrics (atomic; read by -metrics and /debug/vars).
var (
	mFlowSolves = obs.Default.Counter("caching.p1_flow_solves")
	mFlowTime   = obs.Default.Timer("caching.p1_flow_solve")
)

// Subproblem is P1 for a single SBS over a horizon of len(Reward) slots.
type Subproblem struct {
	// K is the catalogue size, Capacity the cache size C.
	K, Capacity int
	// Beta is the per-item replacement cost β.
	Beta float64
	// Initial is x⁰ (length K, integral); nil means an empty cache.
	Initial []float64
	// Reward[t][k] is ρ^t_k ≥ 0, the summed dual multipliers.
	Reward [][]float64
}

// validate checks shapes and domains.
func (sp *Subproblem) validate() error {
	if sp.K <= 0 {
		return fmt.Errorf("caching: K = %d, want > 0", sp.K)
	}
	if sp.Capacity < 0 {
		return fmt.Errorf("caching: capacity = %d, want ≥ 0", sp.Capacity)
	}
	if sp.Beta < 0 {
		return fmt.Errorf("caching: beta = %g, want ≥ 0", sp.Beta)
	}
	if len(sp.Reward) == 0 {
		return fmt.Errorf("caching: empty reward horizon")
	}
	for t, row := range sp.Reward {
		if len(row) != sp.K {
			return fmt.Errorf("caching: reward row %d has %d entries, want %d", t, len(row), sp.K)
		}
		for k, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("caching: reward[%d][%d] = %g, want finite ≥ 0", t, k, v)
			}
		}
	}
	if sp.Initial != nil {
		if len(sp.Initial) != sp.K {
			return fmt.Errorf("caching: initial has %d entries, want %d", len(sp.Initial), sp.K)
		}
		for k, v := range sp.Initial {
			if math.Abs(v) > model.DefaultTol && math.Abs(v-1) > model.DefaultTol {
				return fmt.Errorf("caching: initial[%d] = %g is not integral", k, v)
			}
		}
	}
	return nil
}

func (sp *Subproblem) initiallyCached(k int) bool {
	return sp.Initial != nil && sp.Initial[k] >= 0.5
}

// Objective evaluates the P1 objective of a placement trajectory.
func (sp *Subproblem) Objective(x [][]float64) float64 {
	var obj float64
	for t, row := range x {
		for k, v := range row {
			prev := 0.0
			if t > 0 {
				prev = x[t-1][k]
			} else if sp.initiallyCached(k) {
				prev = 1
			}
			if d := v - prev; d > 0 {
				obj += sp.Beta * d
			}
			obj -= sp.Reward[t][k] * v
		}
	}
	return obj
}

// SolveFlow solves P1 exactly on the time-expanded flow network and returns
// the integral placement x[t][k] ∈ {0, 1} and its objective value.
//
// Network: C units of "cache slot" flow from a start pool to an end pool.
// At every slot a unit either idles in the pool (cost 0) or occupies an
// item node (the unit-capacity in→out arc enforces at most one copy and
// carries cost −ρ^t_k); entering an item from the pool pays β except for
// initially cached items at slot 0. Flow integrality is exactly the total
// unimodularity of Theorem 1.
func (sp *Subproblem) SolveFlow() ([][]float64, float64, error) {
	if err := sp.validate(); err != nil {
		return nil, 0, err
	}
	mFlowSolves.Inc()
	start := time.Now()
	defer func() { mFlowTime.Observe(time.Since(start)) }()
	horizon := len(sp.Reward)

	// Node layout: pools 0..horizon, then item in/out pairs.
	pool := func(t int) int { return t }
	itemIn := func(t, k int) int { return horizon + 1 + 2*(t*sp.K+k) }
	itemOut := func(t, k int) int { return itemIn(t, k) + 1 }
	g := mcflow.NewGraph(horizon + 1 + 2*horizon*sp.K)

	holdArcs := make([][]mcflow.Arc, horizon)
	for t := 0; t < horizon; t++ {
		holdArcs[t] = make([]mcflow.Arc, sp.K)
		g.AddArc(pool(t), pool(t+1), sp.Capacity, 0) // idle
		for k := 0; k < sp.K; k++ {
			fetchCost := sp.Beta
			if t == 0 && sp.initiallyCached(k) {
				fetchCost = 0
			}
			g.AddArc(pool(t), itemIn(t, k), 1, fetchCost)
			holdArcs[t][k] = g.AddArc(itemIn(t, k), itemOut(t, k), 1, -sp.Reward[t][k])
			g.AddArc(itemOut(t, k), pool(t+1), 1, 0) // evict
			if t+1 < horizon {
				g.AddArc(itemOut(t, k), itemIn(t+1, k), 1, 0) // keep
			}
		}
	}

	if _, err := g.Solve(pool(0), pool(horizon), sp.Capacity); err != nil {
		return nil, 0, fmt.Errorf("caching: flow solve: %w", err)
	}

	x := make([][]float64, horizon)
	for t := range x {
		x[t] = make([]float64, sp.K)
		for k := 0; k < sp.K; k++ {
			if g.Flow(holdArcs[t][k]) > 0 {
				x[t][k] = 1
			}
		}
	}
	// Report the canonical objective of the placement rather than the flow
	// solver's running cost: the latter accumulates in augmentation order,
	// whose float rounding depends on the path history, while Objective is
	// a pure function of the placement — the property that keeps the
	// Workspace path's totals bit-identical to this one (DESIGN.md §12).
	return x, sp.Objective(x), nil
}

// SolveLP solves P1 via the paper's LP linearisation (eqs. 21–22) with the
// simplex solver and returns the (provably integral) placement. It exists
// as the faithful-to-the-paper method and as cross-validation for
// SolveFlow; prefer SolveFlow for anything beyond small horizons.
func (sp *Subproblem) SolveLP() ([][]float64, float64, error) {
	if err := sp.validate(); err != nil {
		return nil, 0, err
	}
	horizon := len(sp.Reward)
	kt := horizon * sp.K
	xIdx := func(t, k int) int { return t*sp.K + k }
	pIdx := func(t, k int) int { return kt + t*sp.K + k }

	prob := lp.NewProblem(2 * kt)
	for t := 0; t < horizon; t++ {
		for k := 0; k < sp.K; k++ {
			prob.C[xIdx(t, k)] = -sp.Reward[t][k]
			prob.C[pIdx(t, k)] = sp.Beta
		}
	}
	// Capacity rows: Σ_k x ≤ C per slot.
	for t := 0; t < horizon; t++ {
		row := make([]float64, 2*kt)
		for k := 0; k < sp.K; k++ {
			row[xIdx(t, k)] = 1
		}
		prob.AddConstraint(row, lp.LE, float64(sp.Capacity))
	}
	// Switching rows: x^t − x^{t−1} − p^t ≤ 0 (eq. 22), with x⁰ constant.
	for t := 0; t < horizon; t++ {
		for k := 0; k < sp.K; k++ {
			row := make([]float64, 2*kt)
			row[xIdx(t, k)] = 1
			row[pIdx(t, k)] = -1
			rhs := 0.0
			if t > 0 {
				row[xIdx(t-1, k)] = -1
			} else if sp.initiallyCached(k) {
				rhs = 1
			}
			prob.AddConstraint(row, lp.LE, rhs)
		}
	}
	// Relaxed integrality: x ≤ 1 (Theorem 1 guarantees an integral vertex).
	for t := 0; t < horizon; t++ {
		for k := 0; k < sp.K; k++ {
			row := make([]float64, 2*kt)
			row[xIdx(t, k)] = 1
			prob.AddConstraint(row, lp.LE, 1)
		}
	}

	sol, err := prob.Solve(lp.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("caching: simplex solve: %w", err)
	}
	x := make([][]float64, horizon)
	for t := range x {
		x[t] = make([]float64, sp.K)
		for k := 0; k < sp.K; k++ {
			v := sol.X[xIdx(t, k)]
			if math.Abs(v) > 1e-5 && math.Abs(v-1) > 1e-5 {
				return nil, 0, fmt.Errorf("caching: LP vertex not integral at (t=%d, k=%d): %g", t, k, v)
			}
			if v >= 0.5 {
				x[t][k] = 1
			}
		}
	}
	// Report the objective of the rounded placement (identical to the LP
	// value up to tolerance, exactly consistent with Objective()).
	return x, sp.Objective(x), nil
}

// SolveAll solves P1 for every SBS of an instance given per-(t, n) rewards
// ρ^t_{n,k} (rewards[t][n][k]) and returns per-slot placements plus the
// total P1 objective value. Cancellation is checked before each per-SBS
// flow solve; a done ctx returns a wrapped ctx.Err().
func SolveAll(ctx context.Context, in *model.Instance, rewards [][][]float64) ([]model.CachePlan, float64, error) {
	if len(rewards) != in.T {
		return nil, 0, fmt.Errorf("caching: rewards cover %d slots, want %d", len(rewards), in.T)
	}
	plans := make([]model.CachePlan, in.T)
	for t := range plans {
		plans[t] = model.NewCachePlan(in.N, in.K)
	}
	initial := in.InitialPlan()

	var total float64
	for n := 0; n < in.N; n++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("caching: SBS %d: %w", n, err)
			}
		}
		reward := make([][]float64, in.T)
		for t := 0; t < in.T; t++ {
			if len(rewards[t]) != in.N || len(rewards[t][n]) != in.K {
				return nil, 0, fmt.Errorf("caching: rewards[%d] shaped (%d SBS)", t, len(rewards[t]))
			}
			reward[t] = rewards[t][n]
		}
		// The time-expanded flow network carries one capacity per SBS, so
		// under a fault overlay it plans against the horizon's floor
		// min_t C^t_n — conservative inside a window, with the exact
		// per-slot C^t_n enforced at rounding/commit time.
		sp := &Subproblem{
			K:        in.K,
			Capacity: in.CacheCapFloor(n),
			Beta:     in.Beta[n],
			Initial:  initial[n],
			Reward:   reward,
		}
		x, obj, err := sp.SolveFlow()
		if err != nil {
			return nil, 0, fmt.Errorf("caching: SBS %d: %w", n, err)
		}
		total += obj
		for t := 0; t < in.T; t++ {
			copy(plans[t][n], x[t])
		}
	}
	return plans, total, nil
}
