// Package model defines the joint edge-caching / load-balancing problem of
// Zeng et al., "Joint Online Edge Caching and Load Balancing for Mobile Data
// Offloading in 5G Networks" (ICDCS 2019).
//
// A problem Instance describes one macro base station (BS) serving N small
// base stations (SBS). SBS n has a content cache of CacheCap[n] unit-size
// items (out of a catalogue of K items) and a downlink bandwidth budget
// Bandwidth[n]. Mobile-user class m at SBS n requests content k at mean rate
// λ^t_{m,k} (see Demand). Per slot t a controller chooses
//
//   - a cache placement x^t_{n,k} ∈ {0,1} with Σ_k x^t_{n,k} ≤ CacheCap[n],
//   - a load split y^t_{m,k} ∈ [0,1] (fraction of class-m requests for k
//     served by the SBS; the remainder is served by the BS) with
//     y ≤ x and Σ_{m,k} λ^t_{m,k} y^t_{m,k} ≤ Bandwidth[n],
//
// to minimise Σ_t f_t(Y^t) + g_t(Y^t) + h(X^t, X^{t-1}) where f is the
// quadratic BS operating cost, g the quadratic SBS operating cost and h the
// cache replacement (switching) cost β_n Σ_k (x^t − x^{t−1})⁺.
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Instance is a fully specified joint caching / load-balancing problem over
// a finite horizon. All slices are indexed as documented on each field; an
// Instance is immutable once constructed and safe for concurrent readers.
type Instance struct {
	// N is the number of small base stations.
	N int
	// K is the number of catalogue items (all of unit size, paper §II-A).
	K int
	// T is the number of time slots in the horizon.
	T int
	// Classes[n] is the number of mobile-user classes served by SBS n.
	Classes []int
	// CacheCap[n] is the cache capacity C_n of SBS n, in items.
	CacheCap []int
	// Bandwidth[n] is the per-slot bandwidth budget B_n of SBS n, in the
	// same unit as demand rates (file transmissions per slot).
	Bandwidth []float64
	// OmegaBS[n][m] is the BS transmission weight ω_{m_n} of class m at
	// SBS n (larger for users far from the BS).
	OmegaBS [][]float64
	// OmegaSBS[n][m] is the SBS transmission weight ŵ_{m_n}; the paper's
	// headline setup uses 0 (SBS cost negligible next to BS cost).
	OmegaSBS [][]float64
	// Beta[n] is the per-item cache replacement cost β_n of SBS n.
	Beta []float64
	// Demand holds the request-rate matrices λ^t behind the DemandView
	// contract: dense (*Demand) by default, CSR-style (*SparseDemand) for
	// web-scale catalogues.
	Demand DemandView
	// InitialCache is x^0, the placement in force before slot 0. Nil means
	// an empty cache. When non-nil it must be integral and feasible.
	InitialCache CachePlan
	// Overlay, when non-nil, imposes slot-varying effective capacities
	// B^t_n / C^t_n on top of the base Bandwidth/CacheCap — the view of a
	// faulted world (SBS outages, backhaul degradation; package fault
	// builds these). All feasibility checks validate against the
	// effective values; see BandwidthAt / CacheCapAt.
	Overlay *Overlay
}

// Validate checks internal consistency of the instance: dimensions agree,
// capacities and rates are non-negative, and the initial cache (if any) is
// integral and within capacity. It returns the first problem found.
func (in *Instance) Validate() error {
	switch {
	case in == nil:
		return errors.New("model: nil instance")
	case in.N <= 0:
		return fmt.Errorf("model: N = %d, want > 0", in.N)
	case in.K <= 0:
		return fmt.Errorf("model: K = %d, want > 0", in.K)
	case in.T <= 0:
		return fmt.Errorf("model: T = %d, want > 0", in.T)
	}
	if len(in.Classes) != in.N {
		return fmt.Errorf("model: len(Classes) = %d, want N = %d", len(in.Classes), in.N)
	}
	if len(in.CacheCap) != in.N {
		return fmt.Errorf("model: len(CacheCap) = %d, want N = %d", len(in.CacheCap), in.N)
	}
	if len(in.Bandwidth) != in.N {
		return fmt.Errorf("model: len(Bandwidth) = %d, want N = %d", len(in.Bandwidth), in.N)
	}
	if len(in.Beta) != in.N {
		return fmt.Errorf("model: len(Beta) = %d, want N = %d", len(in.Beta), in.N)
	}
	if len(in.OmegaBS) != in.N {
		return fmt.Errorf("model: len(OmegaBS) = %d, want N = %d", len(in.OmegaBS), in.N)
	}
	if len(in.OmegaSBS) != in.N {
		return fmt.Errorf("model: len(OmegaSBS) = %d, want N = %d", len(in.OmegaSBS), in.N)
	}
	for n := 0; n < in.N; n++ {
		if in.Classes[n] <= 0 {
			return fmt.Errorf("model: Classes[%d] = %d, want > 0", n, in.Classes[n])
		}
		if in.CacheCap[n] < 0 {
			return fmt.Errorf("model: CacheCap[%d] = %d, want ≥ 0", n, in.CacheCap[n])
		}
		if b := in.Bandwidth[n]; b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("model: Bandwidth[%d] = %g, want finite ≥ 0", n, b)
		}
		if b := in.Beta[n]; b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("model: Beta[%d] = %g, want finite ≥ 0", n, b)
		}
		if got := len(in.OmegaBS[n]); got != in.Classes[n] {
			return fmt.Errorf("model: len(OmegaBS[%d]) = %d, want %d", n, got, in.Classes[n])
		}
		if got := len(in.OmegaSBS[n]); got != in.Classes[n] {
			return fmt.Errorf("model: len(OmegaSBS[%d]) = %d, want %d", n, got, in.Classes[n])
		}
		for m := 0; m < in.Classes[n]; m++ {
			if w := in.OmegaBS[n][m]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("model: OmegaBS[%d][%d] = %g, want finite ≥ 0", n, m, w)
			}
			if w := in.OmegaSBS[n][m]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("model: OmegaSBS[%d][%d] = %g, want finite ≥ 0", n, m, w)
			}
		}
	}
	if in.Demand == nil {
		return errors.New("model: nil Demand")
	}
	if err := in.Demand.conforms(in); err != nil {
		return err
	}
	if err := in.Demand.CheckValues(); err != nil {
		return err
	}
	if err := in.Overlay.validate(in); err != nil {
		return err
	}
	if in.InitialCache != nil {
		if err := in.CheckCacheShape(in.InitialCache); err != nil {
			return fmt.Errorf("model: initial cache: %w", err)
		}
		if !in.InitialCache.IsIntegral(DefaultTol) {
			return errors.New("model: initial cache is not integral")
		}
		if err := in.checkCacheCapacity(in.InitialCache, DefaultTol); err != nil {
			return fmt.Errorf("model: initial cache: %w", err)
		}
	}
	return nil
}

// InitialPlan returns the placement in force before slot 0: a copy of
// InitialCache if set, otherwise an all-zero plan.
func (in *Instance) InitialPlan() CachePlan {
	if in.InitialCache != nil {
		return in.InitialCache.Clone()
	}
	return NewCachePlan(in.N, in.K)
}

// Window returns a sub-instance covering slots [from, to) of in, with the
// supplied placement as the initial cache. The demand of the window may be
// overridden (e.g. with noisy predictions) by passing a non-nil demand of
// matching shape; pass nil to slice the instance's own demand. Windowing is
// how the receding-horizon controllers of package online re-use the offline
// solver on short horizons.
func (in *Instance) Window(from, to int, initial CachePlan, demand DemandView) (*Instance, error) {
	if from < 0 || to > in.T || from >= to {
		return nil, fmt.Errorf("model: window [%d, %d) outside horizon [0, %d)", from, to, in.T)
	}
	d := demand
	if d == nil {
		var err error
		d, err = in.Demand.Slice(from, to)
		if err != nil {
			return nil, err
		}
	}
	w := &Instance{
		N:            in.N,
		K:            in.K,
		T:            to - from,
		Classes:      in.Classes,
		CacheCap:     in.CacheCap,
		Bandwidth:    in.Bandwidth,
		OmegaBS:      in.OmegaBS,
		OmegaSBS:     in.OmegaSBS,
		Beta:         in.Beta,
		Demand:       d,
		InitialCache: initial,
		Overlay:      in.sliceOverlay(from, to),
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("model: window [%d, %d): %w", from, to, err)
	}
	return w, nil
}

// Candidates returns the sorted set of contents that can matter to SBS n
// anywhere in the horizon: every item with positive demand in some slot,
// plus every initially cached item. The second part is what keeps
// eviction and β-refill accounting honest — a cached-but-cold item must
// stay a candidate so the solver can charge for (or decline) keeping it.
// Items outside the candidate set can never profitably be cached (fetching
// costs β ≥ 0 and earns nothing), so pruning solver state to this set
// preserves optimal placements and dual bounds.
func (in *Instance) Candidates(n int) []int {
	set := make(map[int]struct{})
	for t := 0; t < in.T; t++ {
		for _, k := range in.Demand.ActiveItems(t, n) {
			set[k] = struct{}{}
		}
	}
	if in.InitialCache != nil {
		for k, v := range in.InitialCache[n] {
			if v >= 0.5 {
				set[k] = struct{}{}
			}
		}
	}
	items := make([]int, 0, len(set))
	for k := range set {
		items = append(items, k)
	}
	sort.Ints(items)
	return items
}
