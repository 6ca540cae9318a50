package trace

import (
	"context"
	"fmt"

	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
)

// PolicyAdapter evaluates a request-driven cache under the paper's cost
// model, so classic policies (LRU, FIFO, …) can be compared head-to-head
// with the optimization-based ones. It satisfies baseline.Policy (and
// hence plugs into package sim).
//
// Semantics: a Poisson trace is sampled from the instance's demand; each
// SBS's requests stream through a fresh cache; the placement x^t is the
// cache's contents at the end of slot t (net insertions between
// consecutive placements incur β, mirroring eq. 8 — intra-slot transient
// insertions that are evicted within the same slot are not charged, which
// slightly favours the classic policies); the load split is the optimal
// one for that placement.
type PolicyAdapter struct {
	// New builds the cache per SBS.
	New Factory
	// Seed drives trace sampling.
	Seed uint64

	label string
}

// NewPolicyAdapter wraps a cache factory for cost-model evaluation.
func NewPolicyAdapter(f Factory, seed uint64) *PolicyAdapter {
	return &PolicyAdapter{New: f, Seed: seed, label: f(1).Name()}
}

// Name implements baseline.Policy.
func (p *PolicyAdapter) Name() string { return p.label }

// Plan implements baseline.Policy.
func (p *PolicyAdapter) Plan(ctx context.Context, in *model.Instance) (model.Trajectory, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if p.New == nil {
		return nil, fmt.Errorf("trace: nil cache factory")
	}
	tr := Generate(in.Demand, p.Seed)

	placements := make([]model.CachePlan, in.T)
	for t := range placements {
		placements[t] = model.NewCachePlan(in.N, in.K)
	}
	for n := 0; n < in.N; n++ {
		// Classic caches carry one fixed capacity, so under a fault
		// overlay they run at the horizon's floor (conservative).
		cache := p.New(in.CacheCapFloor(n))
		for t := 0; t < in.T; t++ {
			for _, req := range tr.Slot(t, n) {
				cache.Access(req.Content)
			}
			for _, k := range cache.Contents() {
				placements[t][n][k] = 1
			}
		}
	}

	return loadbalance.OptimalTrajectory(ctx, in, placements)
}
