package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %g, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, -1}, y)
	if y[0] != 7 || y[1] != -1 {
		t.Fatalf("Axpy = %v, want [7 -1]", y)
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2}
	Scale(-3, x)
	if x[0] != -3 || x[1] != 6 {
		t.Fatalf("Scale = %v, want [-3 6]", x)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almost(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g, want 0", got)
	}
	// Overflow safety: entries near MaxFloat64 must not produce +Inf.
	big := math.MaxFloat64 / 2
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2([]float64{1, 1}, []float64{4, 5}); !almost(got, 5, 1e-12) {
		t.Fatalf("Dist2 = %g, want 5", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ v, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
	}
	for _, tc := range tests {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%g, %g, %g) = %g, want %g", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestDense(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 {
		t.Fatal("At/Set round trip failed")
	}
	out := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, out)
	if out[0] != 5 || out[1] != -2 {
		t.Fatalf("MulVec = %v, want [5 -2]", out)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone aliased storage")
	}
	if got := m.Row(1); got[2] != -2 {
		t.Fatalf("Row = %v", got)
	}
}

func TestDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec did not panic on shape mismatch")
		}
	}()
	NewDense(1, 2).MulVec([]float64{1}, []float64{0})
}

// Property: Cauchy–Schwarz |⟨a,b⟩| ≤ ‖a‖‖b‖ on random vectors.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 1 + r.IntN(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Dist2.
func TestDistTriangleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		n := 1 + r.IntN(10)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := range a {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		return Dist2(a, c) <= Dist2(a, b)+Dist2(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
