// Package baseline implements the caching schemes the paper compares
// against, plus closely related rule-based policies from its related-work
// discussion (§VI).
//
// The paper's "LRFU" (§V-A) is not the classic LRFU of Lee et al.; it is
// the rule "at each timeslot, cache the contents ranked by the MUs'
// request volume, top down, within the cache size", computed on exact
// (noise-free) demand. That rule is the Decay = 0 member of the score
// family implemented here:
//
//	score^t_k = demand^t_k + Decay · score^{t−1}_k,
//
// whose Decay = 1 member is LFU (cumulative frequency) and whose
// intermediate members are the exponential-smoothing recency/frequency
// hybrids of the classic LRFU literature.
//
// All baselines receive the optimal load split for their placement
// (package loadbalance) — the most favourable treatment, consistent with
// the cost ratios the paper reports.
package baseline

import (
	"context"
	"fmt"

	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
)

// Policy plans a full caching/load-balancing trajectory for an instance
// using only rule-based logic (no optimization of the placement). It is
// also the shape of the online controllers' degradation fallback: cheap,
// deterministic, and guaranteed feasible.
type Policy interface {
	// Name is a short label for tables ("LRFU", "LFU", ...).
	Name() string
	// Plan returns a feasible trajectory over the instance's horizon,
	// honouring ctx cancellation in its (parallel) load-split solves.
	Plan(ctx context.Context, in *model.Instance) (model.Trajectory, error)
}

// ScoreCaching caches, at every slot, the top-C_n contents by a running
// demand score.
type ScoreCaching struct {
	// Label is the policy name reported by Name.
	Label string
	// Decay is the score memory: 0 ranks by current-slot demand (the
	// paper's LRFU), 1 accumulates demand forever (LFU), in-between gives
	// exponentially smoothed recency/frequency ranking.
	Decay float64
}

// NewLRFU returns the paper's §V-A baseline.
func NewLRFU() *ScoreCaching { return &ScoreCaching{Label: "LRFU", Decay: 0} }

// NewLFU returns the cumulative-frequency variant.
func NewLFU() *ScoreCaching { return &ScoreCaching{Label: "LFU", Decay: 1} }

// NewEMA returns an exponentially smoothed variant with the given decay.
func NewEMA(decay float64) *ScoreCaching {
	return &ScoreCaching{Label: fmt.Sprintf("EMA(%.2f)", decay), Decay: decay}
}

// Name implements Policy.
func (s *ScoreCaching) Name() string { return s.Label }

// Plan implements Policy.
func (s *ScoreCaching) Plan(ctx context.Context, in *model.Instance) (model.Trajectory, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if s.Decay < 0 || s.Decay > 1 {
		return nil, fmt.Errorf("baseline: decay %g outside [0, 1]", s.Decay)
	}

	// Placements are sequential (scores carry over); load splits are
	// independent and filled in parallel afterwards.
	placements := make([]model.CachePlan, in.T)
	scores := make([][]float64, in.N)
	for n := range scores {
		scores[n] = make([]float64, in.K)
	}
	for t := 0; t < in.T; t++ {
		x := model.NewCachePlan(in.N, in.K)
		for n := 0; n < in.N; n++ {
			for k := 0; k < in.K; k++ {
				scores[n][k] = s.Decay*scores[n][k] + in.Demand.ContentTotal(t, n, k)
			}
			for _, k := range topK(scores[n], in.CacheCapAt(t, n)) {
				x[n][k] = 1
			}
		}
		placements[t] = x
	}
	return loadbalance.OptimalTrajectory(ctx, in, placements)
}

// StaticTop caches the top-C_n contents by average demand over the whole
// horizon and never replaces them: the zero-replacement-cost extreme,
// useful as an ablation anchor against the dynamic policies.
type StaticTop struct{}

// Name implements Policy.
func (*StaticTop) Name() string { return "StaticTop" }

// Plan implements Policy.
func (s *StaticTop) Plan(ctx context.Context, in *model.Instance) (model.Trajectory, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	x := model.NewCachePlan(in.N, in.K)
	for n := 0; n < in.N; n++ {
		totals := make([]float64, in.K)
		for t := 0; t < in.T; t++ {
			for k := 0; k < in.K; k++ {
				totals[k] += in.Demand.ContentTotal(t, n, k)
			}
		}
		// A static placement must be legal at every slot, so under a
		// fault overlay it can only use the horizon's capacity floor.
		for _, k := range topK(totals, in.CacheCapFloor(n)) {
			x[n][k] = 1
		}
	}
	placements := make([]model.CachePlan, in.T)
	for t := range placements {
		placements[t] = x
	}
	return loadbalance.OptimalTrajectory(ctx, in, placements)
}

// NoCaching serves everything from the BS: the x = y = 0 null policy whose
// cost anchors "reduction" percentages.
type NoCaching struct{}

// Name implements Policy.
func (NoCaching) Name() string { return "NoCaching" }

// Plan implements Policy.
func (NoCaching) Plan(_ context.Context, in *model.Instance) (model.Trajectory, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return model.NewTrajectory(in), nil
}

// topK returns the indices of the k largest scores (ties toward smaller
// index, deterministic), skipping zero-score items: an item nobody has
// ever requested is not worth a cache slot.
func topK(scores []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	idx := make([]int, 0, len(scores))
	for i, v := range scores {
		if v > 0 {
			idx = append(idx, i)
		}
	}
	// Partial selection sort: k is small (cache sizes).
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
