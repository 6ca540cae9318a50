package workload

import (
	"math"
	"testing"

	"edgecache/internal/model"
)

func TestStatsHandComputed(t *testing.T) {
	// 2 slots, 1 SBS, 1 class, 2 contents.
	d := model.NewDemand(2, []int{1}, 2)
	d.Set(0, 0, 0, 0, 3)
	d.Set(0, 0, 0, 1, 1)
	d.Set(1, 0, 0, 0, 5)
	d.Set(1, 0, 0, 1, 1)
	s := Stats(d)
	if s.TotalVolume != 10 {
		t.Fatalf("TotalVolume = %g", s.TotalVolume)
	}
	if s.MeanPerSlot != 5 || s.PeakPerSlot != 6 || s.PeakSlot != 1 {
		t.Fatalf("per-slot stats: %+v", s)
	}
	// Content volumes: 8 and 2 → head mass [0.8, 1].
	if math.Abs(s.HeadMass[0]-0.8) > 1e-12 || math.Abs(s.HeadMass[1]-1) > 1e-12 {
		t.Fatalf("HeadMass = %v", s.HeadMass)
	}
	// Gini of {2, 8}: (2·(1·2+2·8))/(2·10) − 3/2 = 36/20 − 1.5 = 0.3.
	if math.Abs(s.Gini-0.3) > 1e-12 {
		t.Fatalf("Gini = %g", s.Gini)
	}
	// CV of {4, 6}: std = √2, mean 5 → ≈ 0.2828.
	if math.Abs(s.TemporalCV-math.Sqrt2/5) > 1e-12 {
		t.Fatalf("TemporalCV = %g", s.TemporalCV)
	}
}

func TestStatsUniformGiniZero(t *testing.T) {
	d := model.NewDemand(1, []int{1}, 4)
	for k := 0; k < 4; k++ {
		d.Set(0, 0, 0, k, 2)
	}
	s := Stats(d)
	if math.Abs(s.Gini) > 1e-12 {
		t.Fatalf("uniform Gini = %g", s.Gini)
	}
	if s.TemporalCV != 0 {
		t.Fatalf("single-slot CV = %g", s.TemporalCV)
	}
}

func TestStatsZeroDemand(t *testing.T) {
	d := model.NewDemand(2, []int{1}, 2)
	s := Stats(d)
	if s.TotalVolume != 0 || s.Gini != 0 || s.TemporalCV != 0 {
		t.Fatalf("zero demand stats: %+v", s)
	}
}

func TestStatsSkewOrdering(t *testing.T) {
	// A steeper Zipf must show higher head mass and Gini.
	flat, err := NewDemand(Config{Classes: []int{5}, K: 20, T: 10,
		Zipf: ZipfMandelbrot{K: 20, Alpha: 0.3}, MaxDensity: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	steep, err := NewDemand(Config{Classes: []int{5}, K: 20, T: 10,
		Zipf: ZipfMandelbrot{K: 20, Alpha: 2.5}, MaxDensity: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sf, ss := Stats(flat), Stats(steep)
	if ss.HeadMass[4] <= sf.HeadMass[4] {
		t.Fatalf("steep head mass %g ≤ flat %g", ss.HeadMass[4], sf.HeadMass[4])
	}
	if ss.Gini <= sf.Gini {
		t.Fatalf("steep Gini %g ≤ flat %g", ss.Gini, sf.Gini)
	}
}

func TestStatsJitterRaisesCV(t *testing.T) {
	still, err := NewDemand(Config{Classes: []int{5}, K: 8, T: 20,
		Zipf: ZipfMandelbrot{K: 8, Alpha: 1}, MaxDensity: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewDemand(Config{Classes: []int{5}, K: 8, T: 20,
		Zipf: ZipfMandelbrot{K: 8, Alpha: 1}, MaxDensity: 10, Jitter: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if Stats(noisy).TemporalCV <= Stats(still).TemporalCV {
		t.Fatal("jitter did not raise temporal CV")
	}
}
