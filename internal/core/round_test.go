package core

import (
	"math"
	"testing"

	"edgecache/internal/model"
)

func TestRoundPlacement(t *testing.T) {
	in := tinyInstance(t, nil)
	avg := model.NewCachePlan(in.N, in.K)
	avg[0][0] = 0.9
	avg[0][1] = 0.5
	avg[0][2] = 0.45
	avg[0][3] = 0.2 // below ρ
	x := model.NewCachePlan(in.N, in.K)
	x[0][3] = 1 // stale: Round overwrites every entry
	var r Rounder
	candidates, dropped, droppedSBS := r.Round(in, 0, avg, x, DefaultRho)
	// Capacity 2: top-2 of the three candidates survive.
	if x[0][0] != 1 || x[0][1] != 1 {
		t.Fatalf("top candidates dropped: %v", x[0])
	}
	if x[0][2] != 0 || x[0][3] != 0 {
		t.Fatalf("capacity repair failed: %v", x[0])
	}
	if candidates != 3 || dropped != 1 || droppedSBS != 1 {
		t.Fatalf("repair stats = (%d candidates, %d dropped, %d SBSs), want (3, 1, 1)", candidates, dropped, droppedSBS)
	}
	if allocs := testing.AllocsPerRun(10, func() { r.Round(in, 0, avg, x, DefaultRho) }); allocs != 0 {
		t.Fatalf("steady-state Round allocates %v objects, want 0", allocs)
	}
}

func TestRoundPlacementTieBreak(t *testing.T) {
	in := tinyInstance(t, nil)
	avg := model.NewCachePlan(in.N, in.K)
	for k := 0; k < 4; k++ {
		avg[0][k] = 0.5
	}
	x := model.NewCachePlan(in.N, in.K)
	var r Rounder
	r.Round(in, 0, avg, x, DefaultRho)
	if x[0][0] != 1 || x[0][1] != 1 || x[0][2] != 0 {
		t.Fatalf("tie break not deterministic toward low indices: %v", x[0])
	}
}

func TestDefaultRhoValue(t *testing.T) {
	if math.Abs(DefaultRho-0.381966) > 1e-5 {
		t.Fatalf("DefaultRho = %g, want (3−√5)/2 ≈ 0.381966", DefaultRho)
	}
}
