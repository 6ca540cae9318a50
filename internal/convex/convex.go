// Package convex implements FISTA (Beck & Teboulle) with adaptive restart
// for smooth convex minimisation over a simple convex set given by a
// projection oracle:
//
//	minimize F(x)  subject to  x ∈ Ω,
//
// with F convex and L-smooth for a known L. Every step is the fixed step
// 1/L: one gradient and one projection.
//
// In this repository the solver handles the load-balancing subproblem P2
// (eq. 19): F is the quadratic operating cost f_t + g_t plus the linear
// Lagrangian term Σ μ y, and Ω is the box-and-bandwidth set projected by
// package projection.
package convex

import (
	"errors"
	"fmt"
	"math"

	"edgecache/internal/mat"
)

// Problem bundles the oracles of one minimisation.
type Problem struct {
	// Func returns F(x).
	Func func(x []float64) float64
	// Grad writes ∇F(x) into grad (len(grad) == len(x)).
	Grad func(x, grad []float64)
	// Project writes the Euclidean projection of z onto Ω into dst and
	// returns dst; dst may alias z. It must be a true projection (firmly
	// non-expansive) for the convergence guarantees to hold.
	Project func(dst, z []float64) ([]float64, error)
	// Lipschitz is a smoothness constant L of F: ∇F is L-Lipschitz. The
	// step is 1/L. P2 supplies its exact constant.
	Lipschitz float64
}

// Options bound a solve. Both fields must be positive; there are no
// defaults at this layer.
type Options struct {
	// MaxIter caps the gradient steps.
	MaxIter int
	// StepTol stops the iteration when the step size drops below
	// StepTol·(1+‖x‖).
	StepTol float64
}

// Validate reports whether o bounds a solve: MaxIter > 0 and StepTol a
// finite positive value.
func (o Options) Validate() error {
	if o.MaxIter <= 0 {
		return fmt.Errorf("convex: MaxIter = %d, want > 0", o.MaxIter)
	}
	if !finitePositive(o.StepTol) {
		return fmt.Errorf("convex: StepTol = %g, want finite and > 0", o.StepTol)
	}
	return nil
}

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Result reports the final iterate.
type Result struct {
	// X is the best iterate found.
	X []float64
	// Value is F(X).
	Value float64
	// Iterations is the number of gradient steps taken.
	Iterations int
	// Converged reports whether the step-size criterion was met before
	// MaxIter.
	Converged bool
}

// Minimize runs FISTA from x0 (which must be feasible or at least
// projectable) and returns the final iterate as X, in a fresh slice. The
// error sources are an invalid problem or options and a failing
// projection oracle; on error the Result is meaningless.
func Minimize(p Problem, x0 []float64, opts Options) (Result, error) {
	var res Result
	if p.Func == nil || p.Grad == nil || p.Project == nil {
		return res, errors.New("convex: Problem requires Func, Grad and Project")
	}
	if !finitePositive(p.Lipschitz) {
		return res, fmt.Errorf("convex: Lipschitz = %g, want finite and > 0", p.Lipschitz)
	}
	if err := opts.Validate(); err != nil {
		return res, err
	}
	n := len(x0)
	x, y, xPrev := make([]float64, n), make([]float64, n), make([]float64, n)
	grad, trial := make([]float64, n), make([]float64, n)

	copy(x, x0)
	if _, err := p.Project(x, x); err != nil {
		return res, fmt.Errorf("convex: projecting start point: %w", err)
	}
	// y is the extrapolated point. xPrev and trial hold stale data until
	// the first iteration overwrites them.
	copy(y, x)

	tk := 1.0
	fxPrev := math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		p.Grad(y, grad)
		copy(trial, y)
		mat.Axpy(-1/p.Lipschitz, grad, trial)
		if _, err := p.Project(trial, trial); err != nil {
			return res, fmt.Errorf("convex: projection failed at iteration %d: %w", iter, err)
		}

		step := mat.Dist2(trial, x)
		// Rotate instead of copying: trial becomes the new x, the old x the
		// new xPrev, and the old xPrev the next iteration's trial buffer
		// (fully overwritten before any read).
		xPrev, x, trial = x, trial, xPrev

		// Function-value adaptive restart (O'Donoghue & Candès): FISTA is
		// non-monotone, and when the objective rises the momentum is
		// overshooting — drop it.
		fx := p.Func(x)
		if fx > fxPrev {
			tk = 1
			copy(y, x)
		} else {
			tNext := 0.5 * (1 + math.Sqrt(1+4*tk*tk))
			beta := (tk - 1) / tNext
			for i := range y {
				y[i] = x[i] + beta*(x[i]-xPrev[i])
			}
			tk = tNext
		}
		fxPrev = fx
		if step <= opts.StepTol*(1+mat.Norm2(x)) {
			res.Converged = true
			break
		}
	}

	res.X = x
	res.Value = p.Func(x)
	return res, nil
}
