package loadbalance

import (
	"fmt"
	"math"

	"edgecache/internal/convex"
	"edgecache/internal/mat"
	"edgecache/internal/projection"
)

// The dual kernel: convex.Workspace.Minimize specialised to the fixed
// shape of a dual-iteration P2 solve — FISTA with the fixed step 1/L,
// projected onto the unit box ∩ the bandwidth knapsack, minimising
// (A − w·y)² + (ŵ·y)² + μ·y over the active view. The generic solver runs
// about fourteen short passes over the view per gradient step (the
// gradient and objective dots, the step, three projection passes, the
// distance, the extrapolation and the scaled norm); the kernel runs two:
//
//   - pass 1 (stepClamp) fuses the gradient, the step, the unit-box clamp
//     and the θ = 0 knapsack load, writing the clamped point and keeping
//     the raw one for the bisection fallback when the load does not fit;
//   - pass 2 (advance) fuses the step distance, the objective dots at the
//     new point, the momentum extrapolation and the next gradient's dots
//     at the extrapolated point. On an adaptive restart y = x, so the
//     objective dots double as the next gradient's.
//
// The kernel is bit-identical to the generic path: every accumulator
// still sums in index order, every product-sum keeps the generic path's
// expression form (so an architecture that fuses multiply-adds fuses both
// alike), and the work it skips cannot change a bit — the knapsack weight
// check runs once per solve in the start projection (λ and B are fixed
// for the solve), and the scaled norm of the stopping rule is evaluated
// only once the step is below StepTol·(1+dim), a bound the norm of a
// unit-box point never exceeds. View coordinates all have λ ≠ 0, so the
// θ = 0 load needs no zero-weight skip. The loops are specialised for
// ŵ ≡ 0 and for nil μ, exactly where objFunc and gradFunc branch.
//
// The passes run over the live coordinates only (pin). By the KKT
// structure of P2, y_i = 0 wherever μ_i/w_i exceeds 2(A − w·y), and most
// coordinates of a dual-iteration solve end there. Before the first step
// the kernel pins every view coordinate whose warm start is exactly +0
// and whose μ_i ≥ fl(c·w_i), where c = 2A is the gradient scale −cu at
// y = 0. The rest are gathered into compact buffers, and a pinned
// coordinate is left alone for the rest of the solve. This is bit-exact
// while every step keeps −cu ≤ c, and cv ≥ 0 when ŵ ≢ 0; the kernel
// checks both before each step. Under them, with w, ŵ ≥ 0, rounding is
// monotone, so fl(cu·w_i) ≥ −fl(c·w_i) and the gradient entry g_i =
// cu·w_i + cv·ŵ_i + μ_i is ≥ 0. The step +0 + fl(α·g_i), α = −1/L, is
// then ≤ 0 and clamps to +0. So in the full-view solve a pinned
// coordinate holds +0 in x, y and the trial point. It adds an exact +0
// to every accumulator (no running sum here is ever −0), mat.Norm2 skips
// it, and it leaves the knapsack bisection alone: its load is +0 at every
// θ, and its raw step ≤ 0 never raises thetaMax, which starts at 0. When
// a step fails the check (an extrapolation that carries w·y below 0), the
// solve reruns over the full view. Nil-μ solves pin nothing. The pin test also asks
// μ_i ≥ c·w_i exactly (the fused c·w_i − μ_i ≤ 0), which keeps the
// argument where a compiler fuses cu·w_i + μ_i into one rounding, and μ_i
// finite, since μ_i·(+0) is NaN in the full solve's objective when μ_i
// is infinite.

// kcoords are the coordinates one kernel run iterates over: the slot's
// active view (idx nil), or the live subset of it that pin leaves, with
// idx holding their view positions and the coefficients gathered.
type kcoords struct {
	idx            []int
	lam, w, wh, mu []float64
}

// dualFISTA minimises the dual-iteration slot objective from x0 (the
// gathered warm start) and writes the final iterate into out — the Result
// of convex.Workspace.Minimize with s.prob, bit for bit. opts must carry
// Method FISTA and the defaults of both layers already applied. out may
// alias x0: it is written only once the solve has succeeded.
func (s *slotState) dualFISTA(x0, out []float64, opts convex.Options) (convex.Result, error) {
	k := s.pin(x0)
	res, held, err := s.fista(&k, x0, opts)
	if err == nil && !held {
		mPinFallbacks.Inc()
		k = s.viewCoords()
		res, _, err = s.fista(&k, x0, opts)
	}
	if err != nil {
		return res, err
	}
	mViewCoords.Add(int64(len(x0)))
	if k.idx == nil {
		copy(out, res.X)
	} else {
		mPinnedCoords.Add(int64(len(x0) - len(k.idx)))
		zero(out)
		for i, j := range k.idx {
			out[j] = res.X[i]
		}
	}
	res.X = out
	return res, nil
}

// viewCoords returns the whole active view as kernel coordinates.
func (s *slotState) viewCoords() kcoords {
	return kcoords{lam: s.vlam, w: s.vw, wh: s.vwh, mu: s.mu}
}

// pin returns the coordinates a solve from x0 iterates over: the view
// less every coordinate priced out at the start (see the file comment).
func (s *slotState) pin(x0 []float64) kcoords {
	n := len(x0)
	if s.mu == nil || n == 0 {
		return s.viewCoords()
	}
	c := 2 * s.a
	w, mu := s.vw[:n], s.mu[:n]
	s.live = growInts(s.live, n)[:0]
	for i, xi := range x0 {
		if m := mu[i]; math.Float64bits(xi) == 0 && m <= math.MaxFloat64 &&
			m >= c*w[i] && math.FMA(c, w[i], -m) <= 0 {
			continue
		}
		s.live = append(s.live, i)
	}
	if len(s.live) == n {
		return s.viewCoords()
	}
	s.lamL, s.wL, s.muL = grow(s.lamL, n), grow(s.wL, n), grow(s.muL, n)
	k := kcoords{
		idx: s.live,
		lam: gatherAt(s.lamL, s.vlam, s.live),
		w:   gatherAt(s.wL, s.vw, s.live),
		mu:  gatherAt(s.muL, s.mu, s.live),
	}
	if !s.whZero {
		s.whL = grow(s.whL, n)
		k.wh = gatherAt(s.whL, s.vwh, s.live)
	}
	return k
}

// fista is one FISTA run over the coordinates k from x0 (view length),
// returning the final iterate in res.X (kernel scratch). When k pins
// coordinates it checks the pin certificate before every step and
// reports held = false, with no result, the first time it fails.
func (s *slotState) fista(k *kcoords, x0 []float64, opts convex.Options) (res convex.Result, held bool, err error) {
	n := len(k.w)
	nv := len(x0)
	s.kx, s.ky, s.kt, s.kraw = grow(s.kx, nv), grow(s.ky, nv), grow(s.kt, nv), grow(s.kraw, nv)
	x, y, trial, raw := s.kx[:n], s.ky[:n], s.kt[:n], s.kraw[:n]

	if k.idx == nil {
		copy(x, x0)
	} else {
		gatherAt(x, x0, k.idx)
	}
	if _, err := projection.UnitBoxKnapsack(x, x, k.lam, s.bw); err != nil {
		return res, false, fmt.Errorf("convex: projecting start point: %w", err)
	}
	copy(y, x)
	uy := mat.Dot(k.w, y)
	var vy float64
	if !s.whZero {
		vy = mat.Dot(k.wh, y)
	}

	alpha := -1 / opts.Lipschitz
	// ‖x‖ ≤ √dim ≤ dim on the unit box, so no step above this bound can
	// meet the stopping rule StepTol·(1+‖x‖).
	normFree := opts.StepTol * (1 + float64(n))
	pinned, c := k.idx != nil, 2*s.a
	tk, fxPrev := 1.0, math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		cu, cv := -2*(s.a-uy), 2*vy
		if pinned && !(-cu <= c && (s.whZero || cv >= 0)) {
			return convex.Result{}, false, nil
		}
		if load := s.stepClamp(k, y, trial, raw, alpha, cu, cv); !(load <= s.bw) {
			if _, err := projection.UnitBoxKnapsack(trial, raw, k.lam, s.bw); err != nil {
				return res, false, fmt.Errorf("convex: projection failed at iteration %d: %w", iter, err)
			}
		}

		tNext := 0.5 * (1 + math.Sqrt(1+4*tk*tk))
		beta := (tk - 1) / tNext
		p := s.advance(k, trial, x, y, beta)
		x, trial = trial, x

		var fx float64
		if s.whZero {
			fx = (s.a - p.ux) * (s.a - p.ux)
		} else {
			fx = (s.a-p.ux)*(s.a-p.ux) + p.vx*p.vx
		}
		if k.mu != nil {
			fx += p.mx
		}
		res.Value = fx // x does not move again: this is F(X)
		if fx > fxPrev {
			// Adaptive restart: drop the momentum, y = x.
			tk = 1
			copy(y, x)
			uy, vy = p.ux, p.vx
		} else {
			tk = tNext
			uy, vy = p.uy, p.vy
		}
		fxPrev = fx

		step := math.Sqrt(p.ssq)
		if step <= normFree && step <= opts.StepTol*(1+mat.Norm2(x)) {
			res.Converged = true
			break
		}
	}
	res.X = x
	return res, true, nil
}

// stepClamp is pass 1: dst = clamp(y − ∇F(y)/L, 0, 1) and raw = the
// unclamped step, where ∇F(y) = cu·w + cv·ŵ + μ. It returns the knapsack
// load Σ λ·dst — the θ = 0 probe of projection.UnitBoxKnapsack; when it
// fits the bandwidth, dst is the projection.
func (s *slotState) stepClamp(k *kcoords, y, dst, raw []float64, alpha, cu, cv float64) (load float64) {
	n := len(y)
	dst, raw = dst[:n], raw[:n]
	w, lam := k.w[:n], k.lam[:n]
	switch {
	case s.whZero && k.mu == nil:
		for i, yi := range y {
			z := yi + alpha*(cu*w[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > 1 {
				z = 1
			}
			dst[i] = z
			load += lam[i] * z
		}
	case s.whZero:
		mu := k.mu[:n]
		for i, yi := range y {
			z := yi + alpha*(cu*w[i]+mu[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > 1 {
				z = 1
			}
			dst[i] = z
			load += lam[i] * z
		}
	case k.mu == nil:
		wh := k.wh[:n]
		for i, yi := range y {
			z := yi + alpha*(cu*w[i]+cv*wh[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > 1 {
				z = 1
			}
			dst[i] = z
			load += lam[i] * z
		}
	default:
		wh, mu := k.wh[:n], k.mu[:n]
		for i, yi := range y {
			z := yi + alpha*(cu*w[i]+cv*wh[i]+mu[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > 1 {
				z = 1
			}
			dst[i] = z
			load += lam[i] * z
		}
	}
	return load
}

// passSums are the accumulators of pass 2: the squared step ‖x⁺ − x‖²,
// the objective dots at x⁺ (w·x⁺, ŵ·x⁺, μ·x⁺) and the gradient dots at the
// extrapolated point (w·y, ŵ·y). Terms a variant skips stay zero.
type passSums struct {
	ssq, ux, vx, mx, uy, vy float64
}

// advance is pass 2 over the new point xn and the previous point xp:
// y = xn + β(xn − xp), accumulating every dot the objective test and the
// next gradient need. The sums live in locals, not in the six-field
// result, so they stay in registers.
func (s *slotState) advance(k *kcoords, xn, xp, y []float64, beta float64) passSums {
	n := len(xn)
	xp, y = xp[:n], y[:n]
	w := k.w[:n]
	var ssq, ux, vx, mx, uy, vy float64
	switch {
	case s.whZero && k.mu == nil:
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
		}
	case s.whZero:
		mu := k.mu[:n]
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			mx += mu[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
		}
	case k.mu == nil:
		wh := k.wh[:n]
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			vx += wh[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
			vy += wh[i] * yi
		}
	default:
		wh, mu := k.wh[:n], k.mu[:n]
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			vx += wh[i] * xi
			mx += mu[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
			vy += wh[i] * yi
		}
	}
	return passSums{ssq: ssq, ux: ux, vx: vx, mx: mx, uy: uy, vy: vy}
}
