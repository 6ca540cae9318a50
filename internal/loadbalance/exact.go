package loadbalance

import "math"

// The closed-form dual solve. On a slot with ŵ ≡ 0 the dual problem is
//
//	min (A − w·y)² + μ·y   s.t. 0 ≤ y ≤ 1, λ·y ≤ B,
//
// a rank-one quadratic plus a linear term. Its gradient is g_i = μ_i −
// c·w_i with c = 2(A − w·y) ∈ [0, 2A], so without the knapsack (θ = 0)
// the KKT conditions read, for w_i > 0 and the ratio r_i = μ_i / w_i:
// y_i = 1 where r_i < c, y_i = 0 where r_i > c, and y_i ∈ [0, 1] free
// where r_i = c. A coordinate with w_i = 0 has g_i = μ_i ≥ 0 and rests
// at 0, and so does one the pin test prices out (μ_i ≥ 2A·w_i, so
// r_i ≥ 2A ≥ c). Taking the rest in (r_i, i) order and raising y group
// by group finds the fixed point c = 2(A − w·y): with U the weight of
// the groups already at 1, a group of ratio r is wholly in while the
// fraction (A − r/2 − U)/Σw_group that puts c at r is ≥ 1, and the first
// group below 1 takes that fraction (0 when r ≥ 2(A − U) already). Every
// coordinate of a tie group shares the one fraction, because the KKT
// conditions fix only the group's weighted sum and one fraction is the
// split that depends on neither the scan's nor the warm start's order.
// The objective is convex, so that KKT point is a minimum of the box
// problem; when it also fits the bandwidth (λ·y ≤ B, the certificate),
// it is a minimum of P2 with knapsack multiplier 0. Otherwise the
// caller runs the dual kernel.
//
// The scan's sums run in (r_i, i) order and the point's load and
// objective in index order over the slot's positions, so the result is a
// function of (λ, ω, B, μ) alone: it does not depend on the warm start,
// on whether the plane is stored dense or sparse (a position without
// demand is not live and adds an exact +0), or on the worker count.

// exactDual solves the dual problem of a slot with ŵ ≡ 0 under the μ row
// mu in closed form. When the KKT point fits the bandwidth it writes the
// point to s.y and returns its objective and true; otherwise it returns
// false and leaves s.y alone. mu is already checked (checkMu).
func (s *slotState) exactDual(mu []float64) (float64, bool) {
	// r holds the ratio μ_i/w_i of every live coordinate and +Inf at the
	// others, by position; it borrows the kernel's raw-step scratch. The
	// passes run over every position: one without demand has w_i = 0, so
	// it is never live and adds an exact +0 to every sum.
	c := 2 * s.a
	w := s.w
	r := grow(s.kraw, s.dim)
	s.kraw = r
	live := growInts(s.live, s.dim)[:0]
	for i, wi := range w {
		r[i] = math.Inf(1)
		if wi > 0 && mu[i] < c*wi {
			r[i] = mu[i] / wi
			live = append(live, i)
		}
	}
	s.live = live

	// The scan pops live coordinates in (ratio, index) order off a min-heap
	// built in place over live, a group of equal ratios at a time: every
	// position with a ratio below thr is at 1, those at thr are at frac.
	// The +Inf of a coordinate that is not live is above any finite thr,
	// and at thr = +Inf (every live coordinate at 1) it takes frac = 0.
	// Once the coordinates at 1 alone carry a load above B by a relative
	// 1e-9 (far above any difference of summation order), the point
	// cannot fit and the scan stops early.
	h := live
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, r, i)
	}
	thr, frac := math.Inf(1), 0.0
	var u, load1 float64
	for len(h) > 0 {
		rg := r[h[0]]
		var wg, lg float64
		for len(h) > 0 && r[h[0]] == rg {
			i := h[0]
			wg += w[i]
			lg += s.lambda[i]
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			siftDown(h, r, 0)
		}
		if rg >= 2*(s.a-u) {
			thr = rg
			break
		}
		if f := (s.a - rg/2 - u) / wg; f < 1 {
			thr, frac = rg, f
			break
		}
		u += wg
		if load1 += lg; load1 > s.bw+1e-9*load1 {
			return 0, false
		}
	}

	at := func(i int) float64 {
		switch {
		case r[i] < thr:
			return 1
		case r[i] == thr:
			return frac
		}
		return 0
	}
	var load float64
	for i, lam := range s.lambda {
		load += lam * at(i)
	}
	if !(load <= s.bw) {
		return 0, false
	}

	var ux, mx float64
	for i := range s.y {
		yi := at(i)
		s.y[i] = yi
		ux += w[i] * yi
		mx += mu[i] * yi
	}
	return (s.a-ux)*(s.a-ux) + mx, true
}

// siftDown restores the min-heap order of h by (r[i], i) below position j.
func siftDown(h []int, r []float64, j int) {
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c], r) {
			c++
		}
		if !before(h[c], h[j], r) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// before reports whether position a comes before b in the (ratio, index)
// order of the scan.
func before(a, b int, r []float64) bool {
	return r[a] < r[b] || r[a] == r[b] && a < b
}
