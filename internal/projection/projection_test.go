package projection

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"edgecache/internal/mat"
)

func TestBox(t *testing.T) {
	z := []float64{-1, 0.5, 2}
	lo := []float64{0, 0, 0}
	hi := []float64{1, 1, 1}
	got := Box(make([]float64, 3), z, lo, hi)
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Box = %v, want %v", got, want)
		}
	}
	// In-place aliasing.
	Box(z, z, lo, hi)
	if z[0] != 0 || z[2] != 1 {
		t.Fatalf("in-place Box = %v", z)
	}
}

func TestBoxPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length":   func() { Box(make([]float64, 1), []float64{1, 2}, []float64{0, 0}, []float64{1, 1}) },
		"inverted": func() { Box(make([]float64, 1), []float64{0}, []float64{1}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoxKnapsackInactive(t *testing.T) {
	// Knapsack slack: result is the plain box projection.
	z := []float64{0.2, 0.3}
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	c := []float64{1, 1}
	got, err := BoxKnapsack(make([]float64, 2), z, lo, hi, c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.2 || got[1] != 0.3 {
		t.Fatalf("got %v, want z unchanged", got)
	}
}

func TestBoxKnapsackActive(t *testing.T) {
	// Project (1, 1) onto {0 ≤ y ≤ 1, y₁+y₂ ≤ 1}: answer (0.5, 0.5).
	z := []float64{1, 1}
	got, err := BoxKnapsack(make([]float64, 2), z, []float64{0, 0}, []float64{1, 1}, []float64{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-0.5) > 1e-9 || math.Abs(got[1]-0.5) > 1e-9 {
		t.Fatalf("got %v, want (0.5, 0.5)", got)
	}
}

func TestBoxKnapsackInfeasible(t *testing.T) {
	_, err := BoxKnapsack(make([]float64, 1), []float64{1}, []float64{0.5}, []float64{1}, []float64{1}, 0.1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBoxKnapsackZeroWeights(t *testing.T) {
	// c = 0 coordinates are unconstrained by the knapsack.
	z := []float64{5, 5}
	got, err := BoxKnapsack(make([]float64, 2), z, []float64{0, 0}, []float64{1, 1}, []float64{0, 1}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("unweighted coordinate = %g, want 1 (box only)", got[0])
	}
	if math.Abs(got[1]-0.25) > 1e-9 {
		t.Fatalf("weighted coordinate = %g, want 0.25", got[1])
	}
}

func TestBoxKnapsackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative weight")
		}
	}()
	_, _ = BoxKnapsack(make([]float64, 1), []float64{1}, []float64{0}, []float64{1}, []float64{-1}, 1)
}

// feasible samples a random point of {lo ≤ y ≤ hi, Σ c y ≤ b} by rejection
// from the box, shrinking toward lo when needed.
func feasiblePoint(r *rand.Rand, lo, hi, c []float64, b float64) []float64 {
	y := make([]float64, len(lo))
	for i := range y {
		y[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
	}
	// Shrink toward lo until feasible (possible when Σ c·lo ≤ b).
	for iter := 0; iter < 200; iter++ {
		var load float64
		for i := range y {
			load += c[i] * y[i]
		}
		if load <= b {
			return y
		}
		for i := range y {
			y[i] = lo[i] + 0.7*(y[i]-lo[i])
		}
	}
	return append([]float64(nil), lo...)
}

// Property: the projection is feasible, idempotent, and no random feasible
// point is closer to z (up to tolerance) — the defining property of a
// Euclidean projection onto a convex set.
func TestBoxKnapsackProjectionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		n := 1 + r.IntN(8)
		z := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		c := make([]float64, n)
		for i := range z {
			z[i] = r.Float64()*4 - 1
			lo[i] = 0
			hi[i] = 0.5 + r.Float64()
			if r.Float64() < 0.2 {
				c[i] = 0
			} else {
				c[i] = r.Float64() * 2
			}
		}
		b := r.Float64() * 3
		y, err := BoxKnapsack(make([]float64, n), z, lo, hi, c, b)
		if err != nil {
			return errors.Is(err, ErrInfeasible) // only legal failure
		}
		// Feasibility.
		var load float64
		for i := range y {
			if y[i] < lo[i]-1e-9 || y[i] > hi[i]+1e-9 {
				return false
			}
			load += c[i] * y[i]
		}
		if load > b+1e-6 {
			return false
		}
		// Idempotency.
		y2, err := BoxKnapsack(make([]float64, n), y, lo, hi, c, b)
		if err != nil || mat.Dist2(y, y2) > 1e-6 {
			return false
		}
		// Optimality against random feasible competitors.
		dStar := mat.Dist2(y, z)
		for trial := 0; trial < 20; trial++ {
			p := feasiblePoint(r, lo, hi, c, b)
			if mat.Dist2(p, z) < dStar-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
