// Package convex implements first-order methods for smooth convex
// minimisation over a simple convex set given by a projection oracle:
//
//	minimize F(x)  subject to  x ∈ Ω,
//
// with F convex and L-smooth. It provides plain projected gradient descent
// and its accelerated variant FISTA (Beck & Teboulle) with backtracking
// line search and adaptive restart.
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

// Method selects the iteration scheme.
type Method int

const (
	// FISTA is accelerated projected gradient with adaptive restart — the
	// default and the right choice for the ill-conditioned rank-one-plus-
	// linear quadratics of P2.
	FISTA Method = iota + 1
	// PGD is plain projected gradient descent, kept as the ablation
	// baseline (BenchmarkP2_FISTAvsPGD).
	PGD
)

// String names the method.
func (m Method) String() string {
	switch m {
	case FISTA:
		return "fista"
	case PGD:
		return "pgd"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

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
}

// Options tune a solve; the zero value selects defaults.
type Options struct {
	// Method defaults to FISTA.
	Method Method
	// MaxIter defaults to 2000.
	MaxIter int
	// StepTol stops the iteration when the step size drops below
	// StepTol·(1+‖x‖). Default 1e-9.
	StepTol float64
	// Lipschitz, when positive, fixes the step to 1/Lipschitz and disables
	// backtracking. P2 supplies its exact smoothness constant, making each
	// iteration a single gradient + projection.
	Lipschitz float64
}

// WithDefaults returns o with every zero (or out-of-range) field replaced
// by the default Minimize applies.
func (o Options) WithDefaults() Options {
	if o.Method == 0 {
		o.Method = FISTA
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.StepTol <= 0 {
		o.StepTol = 1e-9
	}
	return o
}

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

// Minimize runs the selected method from x0 (which must be feasible or at
// least projectable) and returns the final iterate. The only error sources
// are an invalid configuration and a failing projection oracle.
func Minimize(p Problem, x0 []float64, opts Options) (*Result, error) {
	var ws Workspace
	out := make([]float64, len(x0))
	res, err := ws.Minimize(p, x0, out, opts)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Workspace owns the iterate and scratch buffers of a solve so that
// repeated Minimize calls of the same (or smaller) dimension perform no
// steady-state heap allocations. The zero value is ready to use; buffers
// grow on demand and are retained across calls. A Workspace must not be
// used by concurrent solves.
type Workspace struct {
	x, y, xPrev, grad, trial []float64
}

// grow returns buf resized to n entries, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Minimize is the workspace form of the package-level Minimize: scratch
// comes from ws and the final iterate is written into out (len(out) ==
// len(x0); out may alias x0), which the returned Result aliases as X. It
// performs the exact float64 operation sequence of the allocating path —
// buffer rotation replaces the per-iteration copies, and when
// Options.Lipschitz fixes the step the objective value at the extrapolated
// point, which only the backtracking test consumes, is not evaluated at
// all. On error the Result is meaningless.
func (ws *Workspace) Minimize(p Problem, x0, out []float64, opts Options) (Result, error) {
	var res Result
	if p.Func == nil || p.Grad == nil || p.Project == nil {
		return res, errors.New("convex: Problem requires Func, Grad and Project")
	}
	opts = opts.WithDefaults()
	if opts.Method != FISTA && opts.Method != PGD {
		return res, fmt.Errorf("convex: unknown method %d", int(opts.Method))
	}
	n := len(x0)
	if len(out) != n {
		return res, fmt.Errorf("convex: out has %d entries, want %d", len(out), n)
	}

	ws.x = grow(ws.x, n)
	ws.y = grow(ws.y, n)
	ws.xPrev = grow(ws.xPrev, n)
	ws.grad = grow(ws.grad, n)
	ws.trial = grow(ws.trial, n)
	x, y, xPrev, grad, trial := ws.x, ws.y, ws.xPrev, ws.grad, ws.trial

	copy(x, x0)
	if _, err := p.Project(x, x); err != nil {
		return res, fmt.Errorf("convex: projecting start point: %w", err)
	}
	// y is the extrapolated point (equals x for PGD). xPrev and trial hold
	// stale data until the first iteration overwrites them.
	copy(y, x)

	// Backtracking state: L grows by ×2 on failure, shrinks by ×0.9 across
	// iterations to re-probe longer steps.
	l := opts.Lipschitz
	backtrack := l <= 0
	if backtrack {
		l = 1
	}

	tk := 1.0
	var fy float64
	if backtrack {
		fy = p.Func(y)
	}
	fxPrev := math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		p.Grad(y, grad)

		// Find a step satisfying the sufficient-decrease (majorisation)
		// condition F(x⁺) ≤ F(y) + ⟨∇F(y), x⁺−y⟩ + L/2·‖x⁺−y‖².
		for {
			copy(trial, y)
			mat.Axpy(-1/l, grad, trial)
			if _, err := p.Project(trial, trial); err != nil {
				return res, fmt.Errorf("convex: projection failed at iteration %d: %w", iter, err)
			}
			if !backtrack {
				break
			}
			var lin, sq float64
			for i := range trial {
				d := trial[i] - y[i]
				lin += grad[i] * d
				sq += d * d
			}
			if p.Func(trial) <= fy+lin+0.5*l*sq+1e-12*(1+math.Abs(fy)) {
				break
			}
			l *= 2
			if l > 1e18 {
				return res, errors.New("convex: backtracking failed (non-smooth objective?)")
			}
		}

		step := mat.Dist2(trial, x)
		// Rotate instead of copying: trial becomes the new x, the old x the
		// new xPrev, and the old xPrev the next iteration's trial buffer
		// (fully overwritten before any read).
		xPrev, x, trial = x, trial, xPrev

		if opts.Method == PGD {
			copy(y, x)
		} else {
			// Function-value adaptive restart (O'Donoghue & Candès): FISTA
			// is non-monotone, and when the objective rises the momentum is
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
		}
		if backtrack {
			fy = p.Func(y)
			l *= 0.9
		}
		if step <= opts.StepTol*(1+mat.Norm2(x)) {
			res.Converged = true
			break
		}
	}

	copy(out, x)
	res.X = out
	res.Value = p.Func(x)
	return res, nil
}
