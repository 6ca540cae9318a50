package model

import "math"

// DefaultTol is the numerical tolerance used by integrality and feasibility
// checks throughout the library. Solvers report solutions well inside this
// tolerance.
const DefaultTol = 1e-6

// CachePlan is a per-slot cache placement x_{n,k}, indexed [n][k]. Values
// are in [0, 1]; committed plans are integral (exactly 0 or 1 up to
// tolerance), while intermediate primal-dual and averaged CHC iterates may
// be fractional.
type CachePlan [][]float64

// NewCachePlan returns an all-zero placement for n SBSs and k contents.
// Rows share one contiguous backing array (two allocations total, cache-
// friendly iteration); each row is capacity-clipped so appends cannot
// bleed into a neighbour.
func NewCachePlan(n, k int) CachePlan {
	p := make(CachePlan, n)
	buf := make([]float64, n*k)
	for i := range p {
		p[i] = buf[i*k : (i+1)*k : (i+1)*k]
	}
	return p
}

// Clone returns a deep copy of the placement, flattened onto one backing
// array regardless of the source's layout.
func (p CachePlan) Clone() CachePlan {
	out := make(CachePlan, len(p))
	var total int
	for i := range p {
		total += len(p[i])
	}
	buf := make([]float64, 0, total)
	for i := range p {
		buf = append(buf, p[i]...)
		out[i] = buf[len(buf)-len(p[i]) : len(buf) : len(buf)]
	}
	return out
}

// IsIntegral reports whether every entry is within tol of 0 or 1.
func (p CachePlan) IsIntegral(tol float64) bool {
	for _, row := range p {
		for _, v := range row {
			if math.Abs(v) > tol && math.Abs(v-1) > tol {
				return false
			}
		}
	}
	return true
}

// Round snaps every entry to the nearer of 0 and 1, in place, and returns p.
// It is intended for plans already integral up to solver tolerance; use the
// rounding policy of package core (core.Rounder) for genuinely fractional
// plans.
func (p CachePlan) Round() CachePlan {
	for _, row := range p {
		for k, v := range row {
			if v >= 0.5 {
				row[k] = 1
			} else {
				row[k] = 0
			}
		}
	}
	return p
}

// Items returns the indices of contents cached at SBS n (entries ≥ 0.5).
func (p CachePlan) Items(n int) []int {
	var items []int
	for k, v := range p[n] {
		if v >= 0.5 {
			items = append(items, k)
		}
	}
	return items
}

// LoadPlan is a per-slot load split y_{m_n,k} ∈ [0,1], indexed [n][m][k]:
// the fraction of class-m requests for content k served by SBS n (the BS
// serves the complement 1−y).
type LoadPlan [][][]float64

// NewLoadPlan returns an all-zero load split for the given per-SBS class
// counts and k contents. All class rows share one contiguous backing array
// and all per-SBS row tables one backing table (three allocations total
// instead of 1 + N + Σ M_n); rows are capacity-clipped against appends.
func NewLoadPlan(classes []int, k int) LoadPlan {
	p := make(LoadPlan, len(classes))
	var rows int
	for _, m := range classes {
		rows += m
	}
	tab := make([][]float64, rows)
	buf := make([]float64, rows*k)
	idx := 0
	for n := range p {
		p[n] = tab[idx : idx+classes[n] : idx+classes[n]]
		for m := 0; m < classes[n]; m++ {
			off := (idx + m) * k
			tab[idx+m] = buf[off : off+k : off+k]
		}
		idx += classes[n]
	}
	return p
}

// Clone returns a deep copy of the load split, flattened onto contiguous
// backing arrays regardless of the source's layout.
func (p LoadPlan) Clone() LoadPlan {
	out := make(LoadPlan, len(p))
	var rows, total int
	for n := range p {
		rows += len(p[n])
		for m := range p[n] {
			total += len(p[n][m])
		}
	}
	tab := make([][]float64, 0, rows)
	buf := make([]float64, 0, total)
	for n := range p {
		for m := range p[n] {
			buf = append(buf, p[n][m]...)
			tab = append(tab, buf[len(buf)-len(p[n][m]):len(buf):len(buf)])
		}
		out[n] = tab[len(tab)-len(p[n]) : len(tab) : len(tab)]
	}
	return out
}

// SlotDecision bundles the two coupled per-slot decisions.
type SlotDecision struct {
	X CachePlan
	Y LoadPlan
}

// Clone returns a deep copy of the decision.
func (d SlotDecision) Clone() SlotDecision {
	return SlotDecision{X: d.X.Clone(), Y: d.Y.Clone()}
}

// Trajectory is a sequence of per-slot decisions covering a horizon.
type Trajectory []SlotDecision

// NewTrajectory returns an all-zero trajectory shaped for the instance.
func NewTrajectory(in *Instance) Trajectory {
	traj := make(Trajectory, in.T)
	for t := range traj {
		traj[t] = SlotDecision{
			X: NewCachePlan(in.N, in.K),
			Y: NewLoadPlan(in.Classes, in.K),
		}
	}
	return traj
}

// Clone returns a deep copy of the trajectory.
func (traj Trajectory) Clone() Trajectory {
	out := make(Trajectory, len(traj))
	for t := range traj {
		out[t] = traj[t].Clone()
	}
	return out
}
