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

// dualFISTA minimises the dual-iteration slot objective from x0 (the
// gathered warm start) and writes the final iterate into out — the Result
// of convex.Workspace.Minimize with s.prob, bit for bit. opts must carry
// Method FISTA and the defaults of both layers already applied.
func (s *slotState) dualFISTA(x0, out []float64, opts convex.Options) (convex.Result, error) {
	var res convex.Result
	n := len(x0)
	s.kx, s.ky, s.kt, s.kraw = grow(s.kx, n), grow(s.ky, n), grow(s.kt, n), grow(s.kraw, n)
	x, y, trial, raw := s.kx, s.ky, s.kt, s.kraw
	lam := s.vlam[:n]

	copy(x, x0)
	if _, err := projection.UnitBoxKnapsack(x, x, lam, s.bw); err != nil {
		return res, fmt.Errorf("convex: projecting start point: %w", err)
	}
	copy(y, x)
	uy := mat.Dot(s.vw, y)
	var vy float64
	if !s.whZero {
		vy = mat.Dot(s.vwh, y)
	}

	alpha := -1 / opts.Lipschitz
	// ‖x‖ ≤ √dim ≤ dim on the unit box, so no step above this bound can
	// meet the stopping rule StepTol·(1+‖x‖).
	normFree := opts.StepTol * (1 + float64(n))
	tk, fxPrev := 1.0, math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		cu, cv := -2*(s.a-uy), 2*vy
		if load := s.stepClamp(y, trial, raw, alpha, cu, cv); !(load <= s.bw) {
			if _, err := projection.UnitBoxKnapsack(trial, raw, lam, s.bw); err != nil {
				return res, fmt.Errorf("convex: projection failed at iteration %d: %w", iter, err)
			}
		}

		tNext := 0.5 * (1 + math.Sqrt(1+4*tk*tk))
		beta := (tk - 1) / tNext
		p := s.advance(trial, x, y, beta)
		x, trial = trial, x

		var fx float64
		if s.whZero {
			fx = (s.a - p.ux) * (s.a - p.ux)
		} else {
			fx = (s.a-p.ux)*(s.a-p.ux) + p.vx*p.vx
		}
		if s.mu != nil {
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
	copy(out, x)
	res.X = out
	return res, nil
}

// stepClamp is pass 1: dst = clamp(y − ∇F(y)/L, 0, 1) and raw = the
// unclamped step, where ∇F(y) = cu·w + cv·ŵ + μ. It returns the knapsack
// load Σ λ·dst — the θ = 0 probe of projection.UnitBoxKnapsack; when it
// fits the bandwidth, dst is the projection.
func (s *slotState) stepClamp(y, dst, raw []float64, alpha, cu, cv float64) (load float64) {
	n := len(y)
	dst, raw = dst[:n], raw[:n]
	w, lam := s.vw[:n], s.vlam[:n]
	switch {
	case s.whZero && s.mu == nil:
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
		mu := s.mu[:n]
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
	case s.mu == nil:
		wh := s.vwh[:n]
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
		wh, mu := s.vwh[:n], s.mu[:n]
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
func (s *slotState) advance(xn, xp, y []float64, beta float64) passSums {
	n := len(xn)
	xp, y = xp[:n], y[:n]
	w := s.vw[:n]
	var ssq, ux, vx, mx, uy, vy float64
	switch {
	case s.whZero && s.mu == nil:
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
		}
	case s.whZero:
		mu := s.mu[:n]
		for i, xi := range xn {
			d := xi - xp[i]
			ssq += d * d
			ux += w[i] * xi
			mx += mu[i] * xi
			yi := xi + beta*d
			y[i] = yi
			uy += w[i] * yi
		}
	case s.mu == nil:
		wh := s.vwh[:n]
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
		wh, mu := s.vwh[:n], s.mu[:n]
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
