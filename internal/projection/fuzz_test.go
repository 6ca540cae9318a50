package projection

import (
	"math"
	"math/rand/v2"
	"testing"

	"edgecache/internal/mat"
)

// FuzzBoxKnapsack derives random projection problems from the fuzz seed
// and checks the projection invariants: output in the box, knapsack row
// satisfied, idempotent, and never NaN. Run with
// `go test -fuzz FuzzBoxKnapsack ./internal/projection`.
func FuzzBoxKnapsack(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Add(^uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		rng := rand.New(rand.NewPCG(s1, s2))
		n := 1 + rng.IntN(12)
		z := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		c := make([]float64, n)
		for i := range z {
			z[i] = rng.NormFloat64() * 3
			lo[i] = rng.Float64() * 0.3
			hi[i] = lo[i] + rng.Float64()*2
			if rng.Float64() < 0.25 {
				c[i] = 0
			} else {
				c[i] = rng.Float64() * 3
			}
		}
		b := rng.Float64() * 4

		y, err := BoxKnapsack(make([]float64, n), z, lo, hi, c, b)
		if err != nil {
			// Infeasibility is the only legal failure and must be real.
			var minLoad float64
			for i := range c {
				minLoad += c[i] * lo[i]
			}
			if minLoad <= b-1e-9 {
				t.Fatalf("spurious infeasibility: Σc·lo = %g ≤ b = %g", minLoad, b)
			}
			return
		}
		var load float64
		for i := range y {
			if math.IsNaN(y[i]) {
				t.Fatalf("NaN output at %d", i)
			}
			if y[i] < lo[i]-1e-9 || y[i] > hi[i]+1e-9 {
				t.Fatalf("box violated at %d: %g ∉ [%g, %g]", i, y[i], lo[i], hi[i])
			}
			load += c[i] * y[i]
		}
		if load > b+1e-6*(1+b) {
			t.Fatalf("knapsack violated: %g > %g", load, b)
		}
		y2, err := BoxKnapsack(make([]float64, n), y, lo, hi, c, b)
		if err != nil {
			t.Fatalf("projection of projection failed: %v", err)
		}
		if mat.Dist2(y, y2) > 1e-6*(1+mat.Norm2(y)) {
			t.Fatalf("not idempotent: moved %g", mat.Dist2(y, y2))
		}
	})
}
