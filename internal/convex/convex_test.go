package convex

import (
	"math"
	"math/rand/v2"
	"testing"

	"edgecache/internal/mat"
	"edgecache/internal/projection"
)

// boxProject returns a Problem.Project clamping to [0, 1]^n.
func boxProject(n int) func(dst, z []float64) ([]float64, error) {
	lo := make([]float64, n)
	hi := make([]float64, n)
	for i := range hi {
		hi[i] = 1
	}
	return func(dst, z []float64) ([]float64, error) {
		return projection.Box(dst, z, lo, hi), nil
	}
}

// quadratic builds F(x) = ½ xᵀQx + bᵀx for a dense symmetric PSD Q. Its
// gradient is Lipschitz with constant ‖Q‖₂ ≤ ‖Q‖_F, the bound it passes.
func quadratic(q *mat.Dense, b []float64) Problem {
	n := len(b)
	tmp := make([]float64, n)
	return Problem{
		Func: func(x []float64) float64 {
			q.MulVec(x, tmp)
			return 0.5*mat.Dot(x, tmp) + mat.Dot(b, x)
		},
		Grad: func(x, grad []float64) {
			q.MulVec(x, grad)
			mat.Axpy(1, b, grad)
		},
		Project:   boxProject(n),
		Lipschitz: mat.Norm2(q.Data),
	}
}

// defaults are the standalone P2 settings, a budget every problem here
// converges within.
var defaults = Options{MaxIter: 3000, StepTol: 1e-10}

// randomPSD builds Q = AᵀA + εI with entries of A standard normal.
func randomPSD(r *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	q := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(k, i) * a.At(k, j)
			}
			q.Set(i, j, s)
		}
		q.Set(i, i, q.At(i, i)+0.1)
	}
	return q
}

func TestSeparableQuadraticClosedForm(t *testing.T) {
	// F = Σ (x_i − c_i)² over [0,1]^n has the closed-form box solution.
	c := []float64{-0.5, 0.3, 1.7}
	n := len(c)
	p := Problem{
		Func: func(x []float64) float64 {
			var s float64
			for i := range x {
				s += (x[i] - c[i]) * (x[i] - c[i])
			}
			return s
		},
		Grad: func(x, g []float64) {
			for i := range x {
				g[i] = 2 * (x[i] - c[i])
			}
		},
		Project:   boxProject(n),
		Lipschitz: 2,
	}
	res, err := Minimize(p, make([]float64, n), defaults)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.3, 1}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("X = %v, want %v", res.X, want)
		}
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

func TestFixedLipschitzStep(t *testing.T) {
	c := []float64{0.5}
	p := Problem{
		Func:      func(x []float64) float64 { return (x[0] - c[0]) * (x[0] - c[0]) },
		Grad:      func(x, g []float64) { g[0] = 2 * (x[0] - c[0]) },
		Project:   boxProject(1),
		Lipschitz: 2,
	}
	res, err := Minimize(p, []float64{0}, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.5) > 1e-8 {
		t.Fatalf("X = %v, want 0.5", res.X)
	}
}

// kktResidual measures max_i of the projected-gradient optimality violation
// for box-constrained problems: at a solution, g_i ≥ 0 when x_i = 0,
// g_i ≤ 0 when x_i = 1, and g_i ≈ 0 inside.
func kktResidual(x, g []float64) float64 {
	var worst float64
	for i := range x {
		var v float64
		switch {
		case x[i] <= 1e-8:
			v = math.Max(0, -g[i])
		case x[i] >= 1-1e-8:
			v = math.Max(0, g[i])
		default:
			v = math.Abs(g[i])
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

func TestRandomQuadraticsSatisfyKKT(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(6)
		q := randomPSD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		p := quadratic(q, b)
		x0 := make([]float64, n)
		res, err := Minimize(p, x0, Options{MaxIter: 5000, StepTol: 1e-12})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := make([]float64, n)
		p.Grad(res.X, g)
		if r := kktResidual(res.X, g); r > 1e-4 {
			t.Fatalf("trial %d: KKT residual %g", trial, r)
		}
	}
}

func TestKnapsackConstrainedQuadratic(t *testing.T) {
	// min (x₁−1)² + (x₂−1)² s.t. x ∈ [0,1]², x₁+x₂ ≤ 1 → (0.5, 0.5).
	n := 2
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	c := []float64{1, 1}
	p := Problem{
		Func: func(x []float64) float64 {
			return (x[0]-1)*(x[0]-1) + (x[1]-1)*(x[1]-1)
		},
		Grad: func(x, g []float64) {
			g[0] = 2 * (x[0] - 1)
			g[1] = 2 * (x[1] - 1)
		},
		Project: func(dst, z []float64) ([]float64, error) {
			return projection.BoxKnapsack(dst, z, lo, hi, c, 1)
		},
		Lipschitz: 2,
	}
	res, err := Minimize(p, make([]float64, n), defaults)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.5) > 1e-6 || math.Abs(res.X[1]-0.5) > 1e-6 {
		t.Fatalf("X = %v, want (0.5, 0.5)", res.X)
	}
}

func TestMinimizeValidation(t *testing.T) {
	if _, err := Minimize(Problem{Lipschitz: 1}, []float64{0}, defaults); err == nil {
		t.Fatal("accepted nil oracles")
	}
	p := Problem{
		Func:      func(x []float64) float64 { return 0 },
		Grad:      func(x, g []float64) {},
		Project:   boxProject(1),
		Lipschitz: 1,
	}
	if _, err := Minimize(p, []float64{0}, defaults); err != nil {
		t.Fatalf("rejected a valid solve: %v", err)
	}
	for _, lip := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := p
		bad.Lipschitz = lip
		if _, err := Minimize(bad, []float64{0}, defaults); err == nil {
			t.Errorf("accepted Lipschitz %v", lip)
		}
	}
	for _, opts := range []Options{
		{MaxIter: 0, StepTol: 1e-10},
		{MaxIter: -1, StepTol: 1e-10},
		{MaxIter: 3000, StepTol: 0},
		{MaxIter: 3000, StepTol: -1e-10},
		{MaxIter: 3000, StepTol: math.NaN()},
		{MaxIter: 3000, StepTol: math.Inf(1)},
	} {
		if _, err := Minimize(p, []float64{0}, opts); err == nil {
			t.Errorf("accepted %+v", opts)
		}
	}
}

func TestInfeasibleStartIsProjected(t *testing.T) {
	p := Problem{
		Func:      func(x []float64) float64 { return x[0] * x[0] },
		Grad:      func(x, g []float64) { g[0] = 2 * x[0] },
		Project:   boxProject(1),
		Lipschitz: 2,
	}
	res, err := Minimize(p, []float64{17}, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-7 {
		t.Fatalf("X = %v, want 0", res.X)
	}
}
