package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfWeightsNormalised(t *testing.T) {
	z := ZipfMandelbrot{K: 30, Alpha: 0.8, Q: 30}
	w, err := z.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 30 {
		t.Fatalf("len = %d, want 30", len(w))
	}
	var sum float64
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d = %g, want > 0", i, v)
		}
		if i > 0 && v > w[i-1]+1e-15 {
			t.Fatalf("weights not non-increasing at %d: %g > %g", i, v, w[i-1])
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Σ = %g, want 1", sum)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher α concentrates more mass on rank 0; higher q flattens it.
	flat, _ := ZipfMandelbrot{K: 10, Alpha: 0.8, Q: 30}.Weights()
	skew, _ := ZipfMandelbrot{K: 10, Alpha: 2.0, Q: 0}.Weights()
	if skew[0] <= flat[0] {
		t.Fatalf("skewed head %g ≤ flat head %g", skew[0], flat[0])
	}
}

func TestZipfValidation(t *testing.T) {
	for _, z := range []ZipfMandelbrot{{K: 0}, {K: 3, Alpha: -1}, {K: 3, Q: -1}} {
		if _, err := z.Weights(); err == nil {
			t.Errorf("Weights(%+v) accepted invalid config", z)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Classes:    []int{2, 3},
		K:          5,
		T:          4,
		Zipf:       ZipfMandelbrot{K: 5, Alpha: 0.8, Q: 2},
		MaxDensity: 10,
		Jitter:     0.3,
		Seed:       7,
	}
	a, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 4; tt++ {
		for n := 0; n < 2; n++ {
			for m := 0; m < cfg.Classes[n]; m++ {
				for k := 0; k < 5; k++ {
					if a.At(tt, n, m, k) != b.At(tt, n, m, k) {
						t.Fatal("same seed produced different workloads")
					}
				}
			}
		}
	}
	cfg.Seed = 8
	c, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := 0; k < 5 && same; k++ {
		same = a.At(0, 0, 0, k) == c.At(0, 0, 0, k)
	}
	if same {
		t.Fatal("different seeds produced identical first row")
	}
}

func TestGenerateValidation(t *testing.T) {
	base := Config{Classes: []int{1}, K: 2, T: 2, MaxDensity: 1}
	for name, mutate := range map[string]func(*Config){
		"no classes":   func(c *Config) { c.Classes = nil },
		"zero class":   func(c *Config) { c.Classes = []int{0} },
		"zero K":       func(c *Config) { c.K = 0 },
		"zero T":       func(c *Config) { c.T = 0 },
		"neg density":  func(c *Config) { c.MaxDensity = -1 },
		"jitter ≥ 1":   func(c *Config) { c.Jitter = 1 },
		"neg drift":    func(c *Config) { c.DriftPeriod = -1 },
		"zipf K wrong": func(c *Config) { c.Zipf = ZipfMandelbrot{K: 5, Alpha: 1} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := NewDemand(cfg); err == nil {
			t.Errorf("%s: NewDemand accepted invalid config", name)
		}
	}
}

func TestGenerateStationaryWithoutJitter(t *testing.T) {
	cfg := Config{Classes: []int{2}, K: 4, T: 5, MaxDensity: 3, Seed: 3}
	d, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 1; tt < 5; tt++ {
		for m := 0; m < 2; m++ {
			for k := 0; k < 4; k++ {
				if d.At(tt, 0, m, k) != d.At(0, 0, m, k) {
					t.Fatal("zero-jitter workload is not stationary")
				}
			}
		}
	}
}

func TestGenerateDrift(t *testing.T) {
	cfg := Config{Classes: []int{1}, K: 3, T: 6, MaxDensity: 2, DriftPeriod: 2, Seed: 5}
	d, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After one drift period, content 0 should take content 1's old rate.
	if got, want := d.At(2, 0, 0, 0), d.At(0, 0, 0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("drifted rate = %g, want %g", got, want)
	}
	// A full rotation (K·period slots would exceed T; check 2 periods = rank+2).
	if got, want := d.At(4, 0, 0, 0), d.At(0, 0, 0, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("doubly drifted rate = %g, want %g", got, want)
	}
}

func TestBuildInstancePaperDefault(t *testing.T) {
	in, err := BuildInstance(PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	if in.N != 1 || in.K != 30 || in.T != 100 || in.Classes[0] != 30 {
		t.Fatalf("unexpected shape: N=%d K=%d T=%d M=%d", in.N, in.K, in.T, in.Classes[0])
	}
	if in.CacheCap[0] != 5 || in.Bandwidth[0] != 30 || in.Beta[0] != 100 {
		t.Fatalf("unexpected parameters: C=%d B=%g β=%g", in.CacheCap[0], in.Bandwidth[0], in.Beta[0])
	}
	for m, w := range in.OmegaBS[0] {
		if w < 0 || w > 1 {
			t.Fatalf("ω[%d] = %g outside [0, 1]", m, w)
		}
		if in.OmegaSBS[0][m] != 0 {
			t.Fatalf("ŵ[%d] = %g, want 0", m, in.OmegaSBS[0][m])
		}
	}
}

func TestBuildInstanceValidation(t *testing.T) {
	cfg := PaperDefault()
	cfg.N = 0
	if _, err := BuildInstance(cfg); err == nil {
		t.Fatal("accepted N = 0")
	}
}

func TestPredictorExactWhenNoiseFree(t *testing.T) {
	in, err := BuildInstance(PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(in.Demand, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Predict(0, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.T() != 4 {
		t.Fatalf("window length %d, want 4", w.T())
	}
	for tt := 0; tt < 4; tt++ {
		for k := 0; k < in.K; k++ {
			if w.At(tt, 0, 0, k) != in.Demand.At(3+tt, 0, 0, k) {
				t.Fatal("noise-free prediction differs from truth")
			}
		}
	}
}

func TestPredictorNoiseBoundedAndDeterministic(t *testing.T) {
	in, err := BuildInstance(PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	eta := 0.3
	p, err := NewPredictor(in.Demand, eta, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Predict(5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Predict(5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	varies := false
	for tt := 0; tt < 5; tt++ {
		for m := 0; m < 30; m++ {
			for k := 0; k < 30; k++ {
				truth := in.Demand.At(5+tt, 0, m, k)
				av := a.At(tt, 0, m, k)
				if av != b.At(tt, 0, m, k) {
					t.Fatal("same (tau, window) prediction not deterministic")
				}
				if av < truth*(1-eta)-1e-12 || av > truth*(1+eta)+1e-12 {
					t.Fatalf("prediction %g outside η band of truth %g", av, truth)
				}
				if truth > 0 && math.Abs(av-truth) > 1e-15 {
					varies = true
				}
			}
		}
	}
	if !varies {
		t.Fatal("noise never perturbed any rate")
	}
	// A different decision time re-perturbs.
	c, err := p.Predict(6, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0, 0, 0) == a.At(0, 0, 0, 0) && c.At(0, 0, 1, 1) == a.At(0, 0, 1, 1) && c.At(1, 0, 2, 2) == a.At(1, 0, 2, 2) {
		t.Fatal("re-forecast from a later decision time reused old noise")
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewPredictor(nil, 0, 1); err == nil {
		t.Fatal("accepted nil truth")
	}
	in, err := BuildInstance(PaperDefault())
	if err != nil {
		t.Fatal(err)
	}
	for _, eta := range []float64{-0.1, 1.0} {
		if _, err := NewPredictor(in.Demand, eta, 1); err == nil {
			t.Errorf("accepted eta = %g", eta)
		}
	}
	p, _ := NewPredictor(in.Demand, 0.1, 1)
	if _, err := p.Predict(0, 90, 200); err == nil {
		t.Fatal("accepted out-of-horizon window")
	}
}

// Property: uniform01 stays in [0, 1) and is insensitive to argument count
// collisions in an obvious way (different tuples rarely collide).
func TestUniform01Property(t *testing.T) {
	f := func(a, b, c uint64) bool {
		u := uniform01(a, b, c)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if uniform01(1, 2, 3) == uniform01(3, 2, 1) {
		t.Fatal("argument order ignored by hash")
	}
}

func TestGenerateDiurnal(t *testing.T) {
	cfg := Config{
		Classes:          []int{1},
		K:                2,
		T:                8,
		MaxDensity:       4,
		DiurnalAmplitude: 0.5,
		DiurnalPeriod:    8,
		Seed:             3,
	}
	d, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peak near t = 2 (sin max), trough near t = 6 (sin min).
	peak := d.SlotTotal(2, 0)
	trough := d.SlotTotal(6, 0)
	if peak <= trough {
		t.Fatalf("diurnal cycle missing: peak %g ≤ trough %g", peak, trough)
	}
	ratio := peak / trough
	if math.Abs(ratio-3) > 0.2 { // (1+0.5)/(1−0.5) = 3
		t.Fatalf("peak/trough = %g, want ≈ 3", ratio)
	}
	// Validation.
	cfg.DiurnalPeriod = 0
	if _, err := NewDemand(cfg); err == nil {
		t.Fatal("accepted amplitude without period")
	}
	cfg.DiurnalPeriod = 8
	cfg.DiurnalAmplitude = 1
	if _, err := NewDemand(cfg); err == nil {
		t.Fatal("accepted amplitude ≥ 1")
	}
}
