package model

import (
	"math"
	"strings"
	"testing"
)

// overlayInstance attaches a simple overlay to the standard test
// instance: SBS 0 loses all bandwidth and cache at slot 1 (full
// outage); SBS 1 keeps base values throughout.
func overlayInstance(t *testing.T) *Instance {
	t.Helper()
	in := testInstance(t)
	in.Overlay = &Overlay{
		Bandwidth: [][]float64{{10, 10}, {0, 10}},
		CacheCap:  [][]int{{1, 2}, {0, 2}},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("overlayInstance invalid: %v", err)
	}
	return in
}

func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
	}{
		{"NaN bandwidth", func(in *Instance) { in.Bandwidth[0] = nan }, "Bandwidth[0]"},
		{"Inf bandwidth", func(in *Instance) { in.Bandwidth[1] = inf }, "Bandwidth[1]"},
		{"NaN beta", func(in *Instance) { in.Beta[1] = nan }, "Beta[1]"},
		{"Inf beta", func(in *Instance) { in.Beta[0] = inf }, "Beta[0]"},
		{"NaN omega BS", func(in *Instance) { in.OmegaBS[0][1] = nan }, "OmegaBS[0][1]"},
		{"Inf omega BS", func(in *Instance) { in.OmegaBS[1][0] = inf }, "OmegaBS[1][0]"},
		{"NaN omega SBS", func(in *Instance) { in.OmegaSBS[0][0] = nan }, "OmegaSBS[0][0]"},
		{"Inf omega SBS", func(in *Instance) { in.OmegaSBS[1][0] = inf }, "OmegaSBS[1][0]"},
		// Set panics on bad rates, so smuggle the value straight into the
		// storage of a fresh (never-validated) tensor — the path
		// CheckValues exists to catch.
		{"NaN demand", func(in *Instance) {
			d := NewDemand(2, []int{2, 1}, 3)
			d.data[1][0][2] = nan
			in.Demand = d
		}, "λ(t=1, n=0, m=0, k=2)"},
		{"Inf demand", func(in *Instance) {
			d := NewDemand(2, []int{2, 1}, 3)
			d.data[0][1][0] = inf
			in.Demand = d
		}, "λ(t=0, n=1, m=0, k=0)"},
		{"negative demand", func(in *Instance) {
			d := NewDemand(2, []int{2, 1}, 3)
			d.data[0][0][4] = -3
			in.Demand = d
		}, "λ(t=0, n=0, m=1, k=1)"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(t)
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestDemandCheckValuesMemoised(t *testing.T) {
	in := testInstance(t)
	if err := in.Demand.CheckValues(); err != nil {
		t.Fatalf("CheckValues() = %v, want nil", err)
	}
	// After a passing scan the tensor is marked checked; a smuggled NaN is
	// no longer caught. This documents the memoisation contract: the
	// storage must be treated as read-only after validation.
	in.Demand.(*Demand).data[0][0][0] = math.NaN()
	if err := in.Demand.CheckValues(); err != nil {
		t.Fatalf("CheckValues() after pass = %v, want memoised nil", err)
	}
	// A fresh tensor with the same trick is caught.
	d := NewDemand(1, []int{1}, 2)
	d.data[0][0][1] = math.Inf(-1)
	if err := d.CheckValues(); err == nil {
		t.Fatal("CheckValues() = nil for Inf rate, want error")
	}
}

func TestOverlayValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantSub string
	}{
		{"bandwidth slots", func(in *Instance) { in.Overlay.Bandwidth = [][]float64{{1, 1}} }, "covers 1 slots"},
		{"bandwidth sbs", func(in *Instance) { in.Overlay.Bandwidth[1] = []float64{1} }, "covers 1 SBSs"},
		{"cachecap slots", func(in *Instance) { in.Overlay.CacheCap = [][]int{{1, 1}} }, "covers 1 slots"},
		{"cachecap sbs", func(in *Instance) { in.Overlay.CacheCap[0] = []int{1} }, "covers 1 SBSs"},
		{"NaN bandwidth", func(in *Instance) { in.Overlay.Bandwidth[0][0] = math.NaN() }, "want finite"},
		{"negative bandwidth", func(in *Instance) { in.Overlay.Bandwidth[0][1] = -1 }, "outside [0, base"},
		{"amplified bandwidth", func(in *Instance) { in.Overlay.Bandwidth[1][1] = 11 }, "outside [0, base"},
		{"negative cachecap", func(in *Instance) { in.Overlay.CacheCap[1][0] = -1 }, "outside [0, base"},
		{"amplified cachecap", func(in *Instance) { in.Overlay.CacheCap[0][1] = 3 }, "outside [0, base"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in := overlayInstance(t)
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestOverlayAccessors(t *testing.T) {
	in := overlayInstance(t)
	if got := in.BandwidthAt(0, 0); got != 10 {
		t.Errorf("BandwidthAt(0,0) = %g, want 10", got)
	}
	if got := in.BandwidthAt(1, 0); got != 0 {
		t.Errorf("BandwidthAt(1,0) = %g, want 0", got)
	}
	if got := in.CacheCapAt(1, 0); got != 0 {
		t.Errorf("CacheCapAt(1,0) = %d, want 0", got)
	}
	if got := in.CacheCapFloor(0); got != 0 {
		t.Errorf("CacheCapFloor(0) = %d, want 0", got)
	}
	if got := in.CacheCapFloor(1); got != 2 {
		t.Errorf("CacheCapFloor(1) = %d, want 2", got)
	}
	if !in.OutageAt(1, 0) {
		t.Error("OutageAt(1,0) = false, want true")
	}
	if in.OutageAt(0, 0) || in.OutageAt(1, 1) {
		t.Error("OutageAt reported an outage on a healthy (t, n)")
	}
	if got := in.EventSlots(); len(got) != 1 || got[0] != 1 {
		t.Errorf("EventSlots() = %v, want [1]", got)
	}

	// No overlay: base values everywhere, no events.
	base := testInstance(t)
	if got := base.BandwidthAt(1, 1); got != 10 {
		t.Errorf("BandwidthAt without overlay = %g, want 10", got)
	}
	if got := base.CacheCapFloor(0); got != 1 {
		t.Errorf("CacheCapFloor without overlay = %d, want 1", got)
	}
	if got := base.EventSlots(); got != nil {
		t.Errorf("EventSlots without overlay = %v, want nil", got)
	}
}

func TestEventSlotsDetectsSlotZero(t *testing.T) {
	in := testInstance(t)
	// Degraded from the very first slot: the overlay differs from base at
	// t = 0, and recovers at t = 1 — both are events.
	in.Overlay = &Overlay{Bandwidth: [][]float64{{5, 10}, {10, 10}}}
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if got := in.EventSlots(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("EventSlots() = %v, want [0 1]", got)
	}
}

func TestWindowSlicesOverlay(t *testing.T) {
	in := overlayInstance(t)
	w, err := in.Window(1, 2, nil, nil)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if w.Overlay == nil {
		t.Fatal("window lost the overlay")
	}
	if got := w.BandwidthAt(0, 0); got != 0 {
		t.Errorf("window BandwidthAt(0,0) = %g, want 0 (outage slot)", got)
	}
	if got := w.CacheCapAt(0, 1); got != 2 {
		t.Errorf("window CacheCapAt(0,1) = %d, want 2", got)
	}
}

func TestCheckSlotHonoursOverlay(t *testing.T) {
	in := overlayInstance(t)
	// A decision that is feasible at slot 0 (base values) but places load
	// and cache on SBS 0 must be rejected at slot 1 (outage).
	dec := SlotDecision{X: NewCachePlan(2, 3), Y: NewLoadPlan([]int{2, 1}, 3)}
	dec.X[0][0] = 1
	dec.Y[0][0][0] = 1
	if err := in.CheckSlot(0, dec, DefaultTol); err != nil {
		t.Fatalf("CheckSlot(0) = %v, want nil", err)
	}
	err := in.CheckSlot(1, dec, DefaultTol)
	if err == nil {
		t.Fatal("CheckSlot(1) = nil, want effective-capacity violation")
	}
	if !strings.Contains(err.Error(), "effective capacity") {
		t.Errorf("CheckSlot(1) = %q, want effective capacity error", err)
	}
	// Load alone (no cache) on the dead SBS trips the bandwidth check.
	dec.X[0][0] = 0
	dec.Y[0][0][0] = 0
	dec.Y[0][1][0] = 0 // keep coupling satisfied
	dec.X[1][0] = 1
	dec.Y[1][0][0] = 1
	if err := in.CheckSlot(1, dec, DefaultTol); err != nil {
		t.Fatalf("CheckSlot(1) healthy SBS = %v, want nil", err)
	}
}

func TestPerSBSCarriesOverlay(t *testing.T) {
	in := overlayInstance(t)
	sub, err := in.PerSBS(0)
	if err != nil {
		t.Fatalf("PerSBS(0): %v", err)
	}
	if sub.Overlay == nil {
		t.Fatal("PerSBS dropped the overlay")
	}
	if got := sub.BandwidthAt(1, 0); got != 0 {
		t.Errorf("sub BandwidthAt(1,0) = %g, want 0", got)
	}
	if got := sub.CacheCapAt(1, 0); got != 0 {
		t.Errorf("sub CacheCapAt(1,0) = %d, want 0", got)
	}
	sub1, err := in.PerSBS(1)
	if err != nil {
		t.Fatalf("PerSBS(1): %v", err)
	}
	if got := sub1.BandwidthAt(1, 0); got != 10 {
		t.Errorf("sub1 BandwidthAt(1,0) = %g, want 10", got)
	}
}

// FuzzInstanceValidate feeds malformed scalar fields into Validate and
// checks it either rejects the instance or accepts one on which every
// accessor is safe to call. The seed corpus enumerates the malformed
// shapes the validator was hardened against: NaN/Inf capacities, rates
// and weights, and out-of-range overlays.
func FuzzInstanceValidate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	// (bandwidth, beta, omegaBS, rate, overlayB; overlayC)
	f.Add(10.0, 5.0, 1.0, 2.0, 10.0, 1)
	f.Add(nan, 5.0, 1.0, 2.0, 10.0, 1)
	f.Add(inf, 5.0, 1.0, 2.0, 10.0, 1)
	f.Add(10.0, nan, 1.0, 2.0, 10.0, 1)
	f.Add(10.0, -inf, 1.0, 2.0, 10.0, 1)
	f.Add(10.0, 5.0, nan, 2.0, 10.0, 1)
	f.Add(10.0, 5.0, inf, 2.0, 10.0, 1)
	f.Add(10.0, 5.0, 1.0, nan, 10.0, 1)
	f.Add(10.0, 5.0, 1.0, inf, 10.0, 1)
	f.Add(10.0, 5.0, 1.0, -1.0, 10.0, 1)
	f.Add(10.0, 5.0, 1.0, 2.0, nan, 1)
	f.Add(10.0, 5.0, 1.0, 2.0, -2.0, 1)
	f.Add(10.0, 5.0, 1.0, 2.0, 99.0, 1)
	f.Add(10.0, 5.0, 1.0, 2.0, 10.0, -1)
	f.Add(10.0, 5.0, 1.0, 2.0, 10.0, 7)
	f.Add(-4.0, -4.0, -4.0, -4.0, -4.0, -4)
	f.Fuzz(func(t *testing.T, bw, beta, omega, rate, ovB float64, ovC int) {
		d := NewDemand(2, []int{1}, 2)
		// Write the rate into the storage directly so invalid values
		// reach Validate instead of panicking in Set.
		d.data[0][0][0] = rate
		in := &Instance{
			N: 1, K: 2, T: 2,
			Classes:   []int{1},
			CacheCap:  []int{1},
			Bandwidth: []float64{bw},
			OmegaBS:   [][]float64{{omega}},
			OmegaSBS:  [][]float64{{0}},
			Beta:      []float64{beta},
			Demand:    d,
			Overlay: &Overlay{
				Bandwidth: [][]float64{{ovB}, {ovB}},
				CacheCap:  [][]int{{ovC}, {ovC}},
			},
		}
		err := in.Validate()
		valid := bw >= 0 && !math.IsNaN(bw) && !math.IsInf(bw, 0) &&
			beta >= 0 && !math.IsNaN(beta) && !math.IsInf(beta, 0) &&
			omega >= 0 && !math.IsNaN(omega) && !math.IsInf(omega, 0) &&
			rate >= 0 && !math.IsNaN(rate) && !math.IsInf(rate, 0) &&
			ovB >= 0 && ovB <= bw && !math.IsNaN(ovB) &&
			ovC >= 0 && ovC <= 1
		if valid && err != nil {
			t.Fatalf("Validate() = %v for a well-formed instance", err)
		}
		if !valid && err == nil {
			t.Fatalf("Validate() = nil for malformed instance (bw=%g beta=%g omega=%g rate=%g ovB=%g ovC=%d)",
				bw, beta, omega, rate, ovB, ovC)
		}
		if err == nil {
			// Accessors must be total on validated instances.
			for tt := 0; tt < in.T; tt++ {
				_ = in.BandwidthAt(tt, 0)
				_ = in.CacheCapAt(tt, 0)
				_ = in.OutageAt(tt, 0)
			}
			_ = in.CacheCapFloor(0)
			_ = in.EventSlots()
		}
	})
}
