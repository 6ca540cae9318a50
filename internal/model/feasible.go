package model

import (
	"fmt"
	"math"
)

// This file implements the constraint checks of §II-A: cache capacity
// (eq. 1), SBS bandwidth (eq. 2), the caching/load coupling y ≤ x (eq. 3)
// and the variable domains (eqs. 10–11).

// CheckCacheShape verifies the placement has the instance's dimensions
// [N][K].
func (in *Instance) CheckCacheShape(x CachePlan) error {
	if len(x) != in.N {
		return fmt.Errorf("placement has %d SBSs, want %d", len(x), in.N)
	}
	for n := range x {
		if len(x[n]) != in.K {
			return fmt.Errorf("placement row %d has %d contents, want %d", n, len(x[n]), in.K)
		}
	}
	return nil
}

// CheckLoadShape verifies the load split has the instance's dimensions
// [N][M_n][K].
func (in *Instance) CheckLoadShape(y LoadPlan) error {
	if len(y) != in.N {
		return fmt.Errorf("load split has %d SBSs, want %d", len(y), in.N)
	}
	for n := range y {
		if len(y[n]) != in.Classes[n] {
			return fmt.Errorf("load split row %d has %d classes, want %d", n, len(y[n]), in.Classes[n])
		}
		for m := range y[n] {
			if len(y[n][m]) != in.K {
				return fmt.Errorf("load split row (%d, %d) has %d contents, want %d", n, m, len(y[n][m]), in.K)
			}
		}
	}
	return nil
}

// checkCacheCapacity verifies eq. (1) against the base capacities:
// Σ_k x_{n,k} ≤ C_n. Used for the initial cache, which is in force
// before slot 0 and therefore before any fault overlay applies.
func (in *Instance) checkCacheCapacity(x CachePlan, tol float64) error {
	for n := 0; n < in.N; n++ {
		var used float64
		for k := 0; k < in.K; k++ {
			used += x[n][k]
		}
		if used > float64(in.CacheCap[n])+tol {
			return fmt.Errorf("cache capacity violated at SBS %d: %g items cached, capacity %d", n, used, in.CacheCap[n])
		}
	}
	return nil
}

// checkCacheCapacityAt verifies eq. (1) at slot t against the effective
// capacity C^t_n (identical to the base check without an overlay).
func (in *Instance) checkCacheCapacityAt(t int, x CachePlan, tol float64) error {
	for n := 0; n < in.N; n++ {
		var used float64
		for k := 0; k < in.K; k++ {
			used += x[n][k]
		}
		if c := in.CacheCapAt(t, n); used > float64(c)+tol {
			return fmt.Errorf("cache capacity violated at SBS %d: %g items cached, effective capacity %d", n, used, c)
		}
	}
	return nil
}

// CheckSlot verifies the decision for slot t against every per-slot
// constraint of §II-A within tolerance tol. It does not require x to be
// integral (relaxed iterates are legal); use CachePlan.IsIntegral for the
// integrality requirement of committed plans.
func (in *Instance) CheckSlot(t int, dec SlotDecision, tol float64) error {
	if t < 0 || t >= in.T {
		return fmt.Errorf("model: slot %d outside horizon [0, %d)", t, in.T)
	}
	if err := in.CheckCacheShape(dec.X); err != nil {
		return fmt.Errorf("model: slot %d: %w", t, err)
	}
	if err := in.CheckLoadShape(dec.Y); err != nil {
		return fmt.Errorf("model: slot %d: %w", t, err)
	}
	// Domains (eqs. 10–11).
	for n := 0; n < in.N; n++ {
		for k := 0; k < in.K; k++ {
			if v := dec.X[n][k]; v < -tol || v > 1+tol || math.IsNaN(v) {
				return fmt.Errorf("model: slot %d: x[%d][%d] = %g outside [0, 1]", t, n, k, v)
			}
		}
		for m := 0; m < in.Classes[n]; m++ {
			for k := 0; k < in.K; k++ {
				if v := dec.Y[n][m][k]; v < -tol || v > 1+tol || math.IsNaN(v) {
					return fmt.Errorf("model: slot %d: y[%d][%d][%d] = %g outside [0, 1]", t, n, m, k, v)
				}
			}
		}
	}
	// Cache capacity (eq. 1), against the slot's effective C^t_n.
	if err := in.checkCacheCapacityAt(t, dec.X, tol); err != nil {
		return fmt.Errorf("model: slot %d: %w", t, err)
	}
	// Bandwidth (eq. 2) and coupling (eq. 3). The coupling check is
	// demand-independent, so it scans the dense plans; the served load is
	// demand-weighted and accumulates over the active coordinates only
	// (zero-rate terms contribute an exact +0.0 to the dense sum).
	for n := 0; n < in.N; n++ {
		for m := 0; m < in.Classes[n]; m++ {
			for k := 0; k < in.K; k++ {
				if dec.Y[n][m][k] > dec.X[n][k]+tol {
					return fmt.Errorf("model: slot %d: coupling violated at SBS %d: y[%d][%d] = %g > x[%d] = %g",
						t, n, m, k, dec.Y[n][m][k], k, dec.X[n][k])
				}
			}
		}
		var served float64
		yn := dec.Y[n]
		in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
			served += rate * yn[m][k]
		})
		// Scale the bandwidth tolerance by demand volume so that checks
		// remain meaningful across workload magnitudes. The budget is the
		// slot's effective B^t_n, which a fault overlay may shrink.
		scale := 1 + in.Demand.SlotTotal(t, n)
		if bw := in.BandwidthAt(t, n); served > bw+tol*scale {
			return fmt.Errorf("model: slot %d: bandwidth violated at SBS %d: load %g > %g", t, n, served, bw)
		}
	}
	return nil
}

// CheckTrajectory verifies every slot of a trajectory and that its length
// matches the horizon.
func (in *Instance) CheckTrajectory(traj Trajectory, tol float64) error {
	if len(traj) != in.T {
		return fmt.Errorf("model: trajectory has %d slots, want %d", len(traj), in.T)
	}
	for t := range traj {
		if err := in.CheckSlot(t, traj[t], tol); err != nil {
			return err
		}
	}
	return nil
}
