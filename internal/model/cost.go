package model

// This file implements the three cost components of the paper's objective
// (eq. 9): the BS operating cost f_t (eq. 5), the SBS operating cost g_t
// (eq. 6) and the cache replacement cost h (eq. 8).

import "fmt"

// BSCost returns f_t(Y), the BS operating cost of slot t under load split Y:
//
//	f_t(Y) = Σ_n ( Σ_m ω_{m_n} Σ_k (1 − y_{m,k}) λ^t_{m,k} )².
//
// It is non-decreasing and jointly convex in Y, as required by §II-B.
func (in *Instance) BSCost(t int, y LoadPlan) float64 {
	var total float64
	for n := 0; n < in.N; n++ {
		load := in.weightedLoad(t, n, y[n], in.OmegaBS[n], true)
		total += load * load
	}
	return total
}

// SBSCost returns g_t(Y), the SBS operating cost of slot t:
//
//	g_t(Y) = Σ_n ( Σ_m ŵ_{m_n} Σ_k y_{m,k} λ^t_{m,k} )².
func (in *Instance) SBSCost(t int, y LoadPlan) float64 {
	var total float64
	for n := 0; n < in.N; n++ {
		load := in.weightedLoad(t, n, y[n], in.OmegaSBS[n], false)
		total += load * load
	}
	return total
}

// weightedLoad returns Σ_m ω_m Σ_k v_{m,k} λ^t_{m,k} at SBS n, with
// v = 1 − y (the unserved load) or v = y (the served load). It
// accumulates per class through the active-coordinate iterator: classes
// arrive in ascending order, so flushing ω·sum on every class change
// reproduces the dense scan's summation order (skipped zero-rate terms
// contribute an exact +0.0). The iterator is called on the concrete
// tensor (DemandView is sealed to the two), so the closure stays on the
// stack: the cost functions run on every recovery of Algorithm 1 and
// allocate nothing.
func (in *Instance) weightedLoad(t, n int, yn [][]float64, omega []float64, unserved bool) float64 {
	var load, sum float64
	cur := 0
	visit := func(m, k int, rate float64) {
		if m != cur {
			load += omega[cur] * sum
			sum = 0
			cur = m
		}
		if unserved {
			sum += (1 - yn[m][k]) * rate
		} else {
			sum += yn[m][k] * rate
		}
	}
	switch d := in.Demand.(type) {
	case *Demand:
		d.ForEachActive(t, n, visit)
	case *SparseDemand:
		d.ForEachActive(t, n, visit)
	default:
		panic(fmt.Sprintf("model: unknown demand tensor %T", d))
	}
	return load + omega[cur]*sum
}

// ReplacementCost returns h(X, Xprev) = Σ_n β_n Σ_k (x_{n,k} − xprev_{n,k})⁺,
// the cost of fetching newly cached items between consecutive slots (eq. 8).
// It accepts fractional plans (used on relaxed iterates); on integral plans
// it is β_n times the number of newly inserted items.
func (in *Instance) ReplacementCost(prev, cur CachePlan) float64 {
	var total float64
	for n := 0; n < in.N; n++ {
		var inserted float64
		for k := 0; k < in.K; k++ {
			if d := cur[n][k] - prev[n][k]; d > 0 {
				inserted += d
			}
		}
		total += in.Beta[n] * inserted
	}
	return total
}

// ReplacementCount returns the number of cache insertions between two
// integral plans: Σ_{n,k} [cur_{n,k} = 1 ∧ prev_{n,k} = 0]. This is the
// "number of cache replacement times" series of Figs. 2c, 3b and 4b.
func ReplacementCount(prev, cur CachePlan) int {
	var count int
	for n := range cur {
		for k := range cur[n] {
			if cur[n][k] >= 0.5 && prev[n][k] < 0.5 {
				count++
			}
		}
	}
	return count
}

// SlotCost returns the full per-slot cost f_t + g_t + h for a decision made
// at slot t given the previous placement.
func (in *Instance) SlotCost(t int, prev CachePlan, dec SlotDecision) float64 {
	return in.BSCost(t, dec.Y) + in.SBSCost(t, dec.Y) + in.ReplacementCost(prev, dec.X)
}

// CostBreakdown decomposes a trajectory's objective value into the paper's
// reported series.
type CostBreakdown struct {
	// Total = BS + SBS + Replacement, the objective of eq. (9).
	Total float64 `json:"total"`
	// BS is Σ_t f_t, the "operating cost of BS" of Fig. 2d.
	BS float64 `json:"bsCost"`
	// SBS is Σ_t g_t.
	SBS float64 `json:"sbsCost"`
	// Replacement is Σ_t h(X^t, X^{t−1}), the series of Fig. 2b.
	Replacement float64 `json:"replacementCost"`
	// Replacements is the total insertion count, the series of Fig. 2c.
	Replacements int `json:"replacements"`
}

// TotalCost evaluates the objective of eq. (9) along a trajectory, starting
// from the instance's initial placement.
func (in *Instance) TotalCost(traj Trajectory) CostBreakdown {
	var br CostBreakdown
	prev := in.InitialPlan()
	for t := range traj {
		br.BS += in.BSCost(t, traj[t].Y)
		br.SBS += in.SBSCost(t, traj[t].Y)
		br.Replacement += in.ReplacementCost(prev, traj[t].X)
		br.Replacements += ReplacementCount(prev, traj[t].X)
		prev = traj[t].X
	}
	br.Total = br.BS + br.SBS + br.Replacement
	return br
}

// NoCachingCost returns the objective value of the null policy that serves
// every request from the BS (x = y = 0): Σ_t f_t(0). It upper-bounds every
// feasible policy's BS cost and anchors "cost reduction" percentages.
func (in *Instance) NoCachingCost() float64 {
	var total float64
	y := NewLoadPlan(in.Classes, in.K)
	for t := 0; t < in.T; t++ {
		total += in.BSCost(t, y)
	}
	return total
}
