package core

import (
	"math"
	"slices"

	"edgecache/internal/model"
)

// DefaultRho is the rounding threshold ρ = (3−√5)/2 ≈ 0.382 of Theorem 3.
var DefaultRho = (3 - math.Sqrt(5)) / 2

// Rounder applies the CHC rounding policy with capacity repair — the one
// rounding of fractional placements in the library: the combiner of
// package online rounds the versions' averaged placement with it, and
// Solve rounds its ergodic (running-mean) P1 placement with it. Its
// candidate scratch is reused across calls, so a steady-state Round does
// not allocate. The zero value is ready to use; a Rounder serves one
// caller at a time.
type Rounder struct {
	cands []rounding
}

// rounding is a rounding candidate: content k with averaged placement v.
type rounding struct {
	k int
	v float64
}

// Round writes the rounding of the fractional placement avg for slot t
// into x, which must be shaped [N][K] (every entry is overwritten):
// candidates are entries with avg ≥ rho; if more than C^t_n qualify, the
// top C^t_n by value survive, ties going to the smaller k. It reports the
// total number of candidates, how many the capacity repair dropped, and
// at how many SBSs the repair fired — the telemetry of the repair
// DESIGN.md documents.
//
// The repair enforces the slot's effective C^t_n: under a fault overlay
// a dead or shrunk SBS has its placements evicted here (the eviction is
// free under eq. 8; β_n is charged when items are re-fetched).
func (r *Rounder) Round(in *model.Instance, t int, avg, x model.CachePlan, rho float64) (candidates, dropped, droppedSBS int) {
	for n := 0; n < in.N; n++ {
		cands := r.cands[:0]
		row := x[n]
		for k, v := range avg[n] {
			row[k] = 0
			if v >= rho {
				cands = append(cands, rounding{k, v})
			}
		}
		r.cands = cands
		candidates += len(cands)
		c := in.CacheCapAt(t, n)
		if len(cands) > c {
			dropped += len(cands) - c
			droppedSBS++
			slices.SortFunc(cands, byValueThenIndex)
			cands = cands[:c]
		}
		for _, c := range cands {
			row[c.k] = 1
		}
	}
	return candidates, dropped, droppedSBS
}

// byValueThenIndex orders candidates by descending value, ties by
// ascending content index: a total order, so the surviving top C is
// unique.
func byValueThenIndex(a, b rounding) int {
	switch {
	case a.v != b.v:
		if a.v > b.v {
			return -1
		}
		return 1
	default:
		return a.k - b.k
	}
}
