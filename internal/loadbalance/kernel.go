package loadbalance

import (
	"fmt"
	"math"

	"edgecache/internal/convex"
	"edgecache/internal/mat"
	"edgecache/internal/projection"
)

// The dual kernel: every iterative P2 solve of a Workspace, dual
// iteration and feasibility recovery alike (the closed form of exact.go
// and the greedy recovery answer the rest at ŵ ≡ 0) — FISTA with the
// fixed step 1/L, projected onto the box ∩ the bandwidth knapsack,
// minimising (A − w·y)² + (ŵ·y)² + μ·y. A dual solve has μ ≥ 0 and the
// unit box; a recovery has no μ and the box [0, hi] with hi = the fixed
// placement. It runs the iteration of SlotProblem.Solve bit for bit in
// two passes over the coordinates per gradient step, where the reference
// runs about fourteen (the gradient and objective dots, the step, three
// projection passes, the distance, the extrapolation and the scaled
// norm):
//
//   - pass 1 (stepClamp) fuses the gradient, the step, the box clamp and
//     the θ = 0 knapsack load, writing the clamped point and keeping the
//     raw one for the bisection fallback when the load does not fit;
//   - pass 2 (advance) fuses the step distance, the objective dots at the
//     new point, the momentum extrapolation and the next gradient's dots
//     at the extrapolated point. On an adaptive restart y = x, so the
//     objective dots double as the next gradient's.
//
// Every accumulator still sums in index order, every product-sum keeps
// the reference's expression form (so an architecture that fuses
// multiply-adds fuses both alike), and the work the kernel skips cannot
// change a bit: the knapsack weight check runs once per solve in the
// start projection (λ and B are fixed for the solve), and the scaled norm
// of the stopping rule is evaluated only once the step is below
// StepTol·(1+dim), a bound the norm of a point of the unit box never
// exceeds. The loops are specialised for ŵ ≡ 0 (the v-terms are exactly
// +0 there) and for μ present or not.
//
// A solve iterates over the slot's positions with λ ≠ 0 only (act), read
// straight from the slot's dense rows or gathered from them. A λ = 0
// coordinate cannot move in the reference: w_i = ŵ_i = 0, so its gradient
// is μ_i ≥ 0 (or zero), its step from +0 is ≤ 0, the clamp holds it at
// +0, and it adds an exact +0 to every dot product, norm and knapsack
// load (the projections skip zero weights). The dual iterate keeps those
// coordinates at +0: bind zeroes them and solves write back only the
// coordinates they iterate over.
//
// Dual solves iterate over fewer still (pin). By the KKT structure of
// P2, y_i = 0 wherever μ_i/w_i exceeds 2(A − w·y), and most coordinates of
// a dual-iteration solve end there. Before the first step the kernel pins
// every act coordinate whose warm start is exactly +0 and whose
// μ_i ≥ fl(c·w_i), where c = 2A is the gradient scale −cu at y = 0. The
// rest are gathered into compact buffers, and a pinned coordinate is left
// alone for the rest of the solve. This is bit-exact while every step
// keeps −cu ≤ c, and cv ≥ 0 when ŵ ≢ 0; the kernel checks both before
// each step. Under them, with w, ŵ ≥ 0, rounding is monotone, so
// fl(cu·w_i) ≥ −fl(c·w_i) and the gradient entry g_i = cu·w_i + cv·ŵ_i +
// μ_i is ≥ 0. The step +0 + fl(α·g_i), α = −1/L, is then ≤ 0 and clamps to
// +0. So in the unpinned solve a pinned coordinate holds +0 in x, y and
// the trial point. It adds an exact +0 to every accumulator (no running
// sum here is ever −0), mat.Norm2 skips it, and it leaves the knapsack
// bisection alone: its load is +0 at every θ, and its raw step ≤ 0 never
// raises thetaMax, which starts at 0. When a step fails the check (an
// extrapolation that carries w·y below 0), the solve widens to act at
// that step and goes on (widen): every pinned coordinate is still +0 in
// x and y and added +0 to every sum so far, so the run over act from
// there is the unpinned run.
// The pin test also asks μ_i ≥ c·w_i exactly (the fused c·w_i − μ_i ≤ 0),
// which keeps the argument where a compiler fuses cu·w_i + μ_i into one
// rounding. SolveDual admits only finite μ ≥ 0, the domain of both
// arguments: a negative μ_i moves a λ = 0 coordinate, and an infinite one
// makes μ_i·(+0) NaN in the reference objective.

// kcoords are the coordinates one kernel run iterates over and their
// coefficients: the slot's own rows (idx nil, every position has demand)
// or their gather at the plane positions idx. hi is the recovery bound
// (nil: the unit box); pinned marks a run that holds coordinates out
// under the pin certificate and must check it, and muRow is then the
// whole μ row it widens with.
type kcoords struct {
	idx                []int
	lam, w, wh, mu, hi []float64
	pinned             bool
	muRow              []float64
}

// coords returns the kernel coordinates at the plane positions idx, with
// μ row mu and recovery bound hi (either may be nil).
func (s *slotState) coords(idx []int, mu, hi []float64) kcoords {
	if idx == nil {
		return kcoords{lam: s.lambda, w: s.w, wh: s.wh, mu: mu, hi: hi}
	}
	n := len(idx)
	s.lamL, s.wL = grow(s.lamL, n), grow(s.wL, n)
	k := kcoords{idx: idx, lam: gatherAt(s.lamL, s.lambda, idx), w: gatherAt(s.wL, s.w, idx)}
	if !s.whZero {
		s.whL = grow(s.whL, n)
		k.wh = gatherAt(s.whL, s.wh, idx)
	}
	if mu != nil {
		s.muL = grow(s.muL, n)
		k.mu = gatherAt(s.muL, mu, idx)
	}
	if hi != nil {
		s.hiL = grow(s.hiL, n)
		k.hi = gatherAt(s.hiL, hi, idx)
	}
	return k
}

// pin returns the coordinates a dual solve under mu iterates over from
// the warm start s.y: act less every coordinate priced out at the start
// (see the file comment).
func (s *slotState) pin(mu []float64) kcoords {
	c := 2 * s.a
	s.live = growInts(s.live, s.dim)[:0]
	if s.act == nil {
		for i, yi := range s.y {
			if !pinnable(yi, mu[i], c, s.w[i]) {
				s.live = append(s.live, i)
			}
		}
		if len(s.live) == s.dim {
			return s.coords(nil, mu, nil)
		}
	} else {
		for _, i := range s.act {
			if !pinnable(s.y[i], mu[i], c, s.w[i]) {
				s.live = append(s.live, i)
			}
		}
		if len(s.live) == len(s.act) {
			return s.coords(s.act, mu, nil)
		}
	}
	k := s.coords(s.live, mu, nil)
	k.pinned, k.muRow = true, mu
	return k
}

// widen turns the pinned run k, whose certificate failed before a step,
// into the run over act at that step: it scatters the live iterates x
// and y onto act's positions (a pinned coordinate is +0 in both), sets k
// to act's coordinates and returns the widened x, y and the step scratch
// trial and raw, all drawn from the kernel's four buffers.
func (s *slotState) widen(k *kcoords, x, y, trial, raw []float64) (xw, yw, trialW, rawW []float64) {
	live := k.idx
	*k = s.coords(s.act, k.muRow, nil)
	n := len(k.w)
	xw, yw = grow(trial, n), grow(raw, n)
	zero(xw)
	zero(yw)
	pos := 0
	for j, p := range live {
		if s.act != nil {
			for s.act[pos] != p {
				pos++
			}
		} else {
			pos = p
		}
		xw[pos], yw[pos] = x[j], y[j]
	}
	trialW, rawW = grow(x, n), grow(y, n)
	s.kx, s.ky, s.kt, s.kraw = xw, yw, trialW, rawW
	return xw, yw, trialW, rawW
}

// pinnable is the pin test of one coordinate: a +0 warm start y and
// μ ≥ c·w both as rounded and as fused.
func pinnable(y, mu, c, w float64) bool {
	return math.Float64bits(y) == 0 && mu >= c*w && math.FMA(c, w, -mu) <= 0
}

// fista is one FISTA run over the coordinates k from the plane point x0,
// returning the final iterate in res.X (kernel scratch, one entry per
// coordinate of k). A pinned run checks the pin certificate before every
// step; the first time it fails, the run widens k to act and goes on.
// opts must be checked already.
func (s *slotState) fista(k *kcoords, x0 []float64, opts convex.Options) (res convex.Result, err error) {
	n := len(k.w)
	s.kx, s.ky, s.kt, s.kraw = grow(s.kx, n), grow(s.ky, n), grow(s.kt, n), grow(s.kraw, n)
	x, y, trial, raw := s.kx, s.ky, s.kt, s.kraw

	if k.idx == nil {
		copy(x, x0)
	} else {
		gatherAt(x, x0, k.idx)
	}
	if err := s.project(k, x, x); err != nil {
		return res, fmt.Errorf("convex: projecting start point: %w", err)
	}
	copy(y, x)
	uy := mat.Dot(k.w, y)
	var vy float64
	if !s.whZero {
		vy = mat.Dot(k.wh, y)
	}

	alpha := -1 / s.lip
	// ‖x‖ ≤ √dim ≤ dim on the unit box, so no step above this bound can
	// meet the stopping rule StepTol·(1+‖x‖).
	normFree := opts.StepTol * (1 + float64(n))
	c := 2 * s.a
	tk, fxPrev := 1.0, math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		cu, cv := -2*(s.a-uy), 2*vy
		if k.pinned && !(-cu <= c && (s.whZero || cv >= 0)) {
			mPinFallbacks.Inc()
			x, y, trial, raw = s.widen(k, x, y, trial, raw)
			normFree = opts.StepTol * (1 + float64(len(x)))
		}
		if load := s.stepClamp(k, y, trial, raw, alpha, cu, cv); !(load <= s.bw) {
			if err := s.project(k, trial, raw); err != nil {
				return res, fmt.Errorf("convex: projection failed at iteration %d: %w", iter, err)
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
	return res, nil
}

// project writes the projection of z onto the knapsack over k's box into
// dst: the unit box, or [0, hi] on a recovery.
func (s *slotState) project(k *kcoords, dst, z []float64) error {
	var err error
	if k.hi == nil {
		_, err = projection.UnitBoxKnapsack(dst, z, k.lam, s.bw)
	} else {
		_, err = projection.BoxKnapsack(dst, z, s.zeros[:len(k.hi)], k.hi, k.lam, s.bw)
	}
	return err
}

// stepClamp is pass 1: dst = clamp(y − ∇F(y)/L, 0, u) and raw = the
// unclamped step, where ∇F(y) = cu·w + cv·ŵ + μ and u is 1 on a dual
// solve and hi on a recovery, the only solves without μ. It returns the
// knapsack load Σ λ·dst — the θ = 0 probe of the projection; when it fits
// the bandwidth, dst is the projection.
func (s *slotState) stepClamp(k *kcoords, y, dst, raw []float64, alpha, cu, cv float64) (load float64) {
	n := len(y)
	dst, raw = dst[:n], raw[:n]
	w, lam := k.w[:n], k.lam[:n]
	switch {
	case s.whZero && k.mu == nil:
		hi := k.hi[:n]
		for i, yi := range y {
			z := yi + alpha*(cu*w[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > hi[i] {
				z = hi[i]
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
		wh, hi := k.wh[:n], k.hi[:n]
		for i, yi := range y {
			z := yi + alpha*(cu*w[i]+cv*wh[i])
			raw[i] = z
			if z < 0 {
				z = 0
			} else if z > hi[i] {
				z = hi[i]
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
