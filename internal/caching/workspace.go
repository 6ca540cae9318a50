package caching

import (
	"context"
	"fmt"
	"math"
	"time"

	"edgecache/internal/mcflow"
	"edgecache/internal/model"
)

// sbsNet is one SBS's bound time-expanded network plus the geometry pins
// that decide whether a later Bind can keep the graph.
type sbsNet struct {
	g    *mcflow.Graph
	hold [][]mcflow.Arc // hold[t][ci]: flow > 0 ⇔ item ci cached at slot t
	// fetch0[ci] is the slot-0 pool→item arc, the only arc whose cost
	// depends on the initial cache and therefore the only one Bind must
	// retarget when reusing the graph across windows.
	fetch0 []mcflow.Arc
	// items maps the compact item index to its global content id; nil
	// means the network spans all K items with the identity numbering.
	items []int

	// Geometry pins checked by Bind before reusing the graph.
	horizon, kc, capFloor int
	beta                  float64
	built                 bool
}

// Workspace holds the per-instance state of the P1 caching subproblem so
// that repeated solves under changing dual rewards — one per primal-dual
// iteration — reuse one time-expanded flow network per SBS instead of
// rebuilding it. Only the hold-arc costs depend on μ; topology, capacities
// and fetch costs are fixed by the instance, so each iteration is a
// SetCost pass over every reward row followed by Reset + Solve on
// recycled solver scratch.
//
// A Workspace is not safe for concurrent use. The zero value is usable
// after Bind.
type Workspace struct {
	in   *model.Instance
	nets []sbsNet

	// initial aliases the InitialPlan captured at Bind, the x⁰ reference
	// for canonical objectives.
	initial model.CachePlan

	// plans is the placement buffer returned by SolveAll, overwritten by
	// every call.
	plans []model.CachePlan
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Bind sizes the workspace for an instance and builds the per-SBS flow
// networks over the full catalogue. It must be called before SolveAll and
// again whenever the instance changes. The construction replicates
// Subproblem.SolveFlow's arc order exactly so the solved flows — and hence
// the placements — match the per-call path bit for bit.
func (ws *Workspace) Bind(in *model.Instance) { ws.BindPruned(in, nil) }

// BindPruned is Bind with per-SBS candidate pruning: cands[n], when
// non-nil and a strict subset of the catalogue, restricts SBS n's network
// to those items (sorted ascending global ids, e.g. Instance.Candidates),
// shrinking it from O(T·K) to O(T·|cands[n]|) nodes and arcs. Placements
// returned by SolveAll stay full K-width, with excluded items pinned to 0.
//
// Pruning is exact whenever every reward outside the candidate set is zero
// and no excluded item is initially cached (both hold for the dual rewards
// ρ = Σ_m μ of Algorithm 1 over Instance.Candidates): an excluded item
// earns nothing and costs β_n ≥ 0 to fetch, so some optimal flow of the
// full network never touches it, and the pruned optimum has the same
// objective. At β_n = 0 the full network may realise that optimum with
// cost-equal flow through a zero-reward item; the pruned solution is then
// one of the optimal ties, not bit-identical to the unpruned one.
//
// When an SBS's network geometry is unchanged from the previous binding —
// same horizon, candidate set, capacity floor and β — the graph is kept
// rather than rebuilt: only the slot-0 fetch costs (the initial cache) are
// retargeted. The cross-window replan path of the online controllers hits
// this on every window, making rebinding allocation-free in steady state.
func (ws *Workspace) BindPruned(in *model.Instance, cands [][]int) {
	ws.in = in
	horizon := in.T

	if cap(ws.nets) < in.N {
		old := ws.nets
		ws.nets = make([]sbsNet, in.N)
		copy(ws.nets, old)
	} else {
		ws.nets = ws.nets[:in.N]
	}
	initial := in.InitialPlan()
	ws.initial = initial
	for n := 0; n < in.N; n++ {
		items := []int(nil)
		kc := in.K
		if cands != nil && cands[n] != nil && len(cands[n]) < in.K {
			items = cands[n]
			kc = len(items)
		}
		net := &ws.nets[n]
		capFloor := in.CacheCapFloor(n)
		if net.built && net.horizon == horizon && net.kc == kc &&
			net.capFloor == capFloor && net.beta == in.Beta[n] && sameItems(net.items, items) {
			// Reuse the network: only the slot-0 fetch costs depend on
			// the initial cache.
			net.items = items
			for ci := 0; ci < kc; ci++ {
				k := ci
				if items != nil {
					k = items[ci]
				}
				fetchCost := in.Beta[n]
				if initial[n][k] >= 0.5 {
					fetchCost = 0
				}
				net.g.SetCost(net.fetch0[ci], fetchCost)
			}
			continue
		}

		// Node layout mirrors SolveFlow: pools 0..horizon, then item
		// in/out pairs (over the compact numbering when pruned).
		pool := func(t int) int { return t }
		itemIn := func(t, ci int) int { return horizon + 1 + 2*(t*kc+ci) }
		itemOut := func(t, ci int) int { return itemIn(t, ci) + 1 }
		g := mcflow.NewGraph(horizon + 1 + 2*horizon*kc)

		hold := make([][]mcflow.Arc, horizon)
		fetch0 := make([]mcflow.Arc, kc)
		for t := 0; t < horizon; t++ {
			hold[t] = make([]mcflow.Arc, kc)
			// Idle capacity uses the horizon floor min_t C^t_n: one
			// commodity per SBS cannot express per-slot caps (see the
			// package-level SolveAll).
			g.AddArc(pool(t), pool(t+1), capFloor, 0) // idle
			for ci := 0; ci < kc; ci++ {
				k := ci
				if items != nil {
					k = items[ci]
				}
				fetchCost := in.Beta[n]
				if t == 0 && initial[n][k] >= 0.5 {
					fetchCost = 0
				}
				fetch := g.AddArc(pool(t), itemIn(t, ci), 1, fetchCost)
				if t == 0 {
					fetch0[ci] = fetch
				}
				// Hold cost is the per-iteration −ρ^t_{n,k}, installed by
				// SolveAll via SetCost.
				hold[t][ci] = g.AddArc(itemIn(t, ci), itemOut(t, ci), 1, 0)
				g.AddArc(itemOut(t, ci), pool(t+1), 1, 0) // evict
				if t+1 < horizon {
					g.AddArc(itemOut(t, ci), itemIn(t+1, ci), 1, 0) // keep
				}
			}
		}
		net.g = g
		net.hold = hold
		net.fetch0 = fetch0
		net.items = items
		net.horizon, net.kc, net.capFloor, net.beta = horizon, kc, capFloor, in.Beta[n]
		net.built = true
	}

	if cap(ws.plans) < in.T {
		ws.plans = make([]model.CachePlan, in.T)
	} else {
		ws.plans = ws.plans[:in.T]
	}
	for t := range ws.plans {
		p := ws.plans[t]
		if len(p) != in.N || (in.N > 0 && cap(p[0]) < in.K) {
			ws.plans[t] = model.NewCachePlan(in.N, in.K)
			continue
		}
		for n := range p {
			p[n] = p[n][:in.K]
		}
	}
}

// sameItems reports whether two candidate lists describe the same compact
// catalogue (both nil meaning the full identity catalogue).
func sameItems(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Release drops the workspace's references to the bound instance (and to
// the initial plan captured from it) and keeps every buffer, so an idle
// workspace does not keep its last instance reachable. Bind must run
// again before the next SolveAll.
func (ws *Workspace) Release() {
	ws.in, ws.initial = nil, nil
}

// SolveAll is the workspace counterpart of the package-level SolveAll: it
// solves P1 for every SBS under the given rewards and returns the per-slot
// placements (aliasing workspace memory, overwritten by the next call) and
// the total P1 objective. Every SBS retargets every hold cost and then
// runs Reset + Solve, so its flow is exactly a freshly built graph's
// (mcflow's reuse contract); every reward is validated on every call.
// The per-SBS objective is computed canonically from the placement
// (Subproblem.Objective order). Behaviour, summation order and solutions
// are identical to the per-call path.
func (ws *Workspace) SolveAll(ctx context.Context, rewards [][][]float64) ([]model.CachePlan, float64, error) {
	in := ws.in
	if in == nil {
		panic("caching: Workspace.SolveAll before Bind")
	}
	if len(rewards) != in.T {
		return nil, 0, fmt.Errorf("caching: rewards cover %d slots, want %d", len(rewards), in.T)
	}

	var total float64
	for n := 0; n < in.N; n++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, 0, fmt.Errorf("caching: SBS %d: %w", n, err)
			}
		}
		net := &ws.nets[n]
		mFlowSolves.Inc()
		start := time.Now()
		g := net.g
		for t := 0; t < in.T; t++ {
			if len(rewards[t]) != in.N || len(rewards[t][n]) != in.K {
				return nil, 0, fmt.Errorf("caching: rewards[%d] shaped (%d SBS)", t, len(rewards[t]))
			}
			row := rewards[t][n]
			for k, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, 0, fmt.Errorf("caching: SBS %d: caching: reward[%d][%d] = %g, want finite ≥ 0", n, t, k, v)
				}
			}
			hold := net.hold[t]
			if net.items == nil {
				for k := 0; k < in.K; k++ {
					g.SetCost(hold[k], -row[k])
				}
			} else {
				for ci, k := range net.items {
					g.SetCost(hold[ci], -row[k])
				}
			}
		}
		g.Reset()
		_, err := g.Solve(0, in.T, net.capFloor)
		mFlowTime.Observe(time.Since(start))
		if err != nil {
			return nil, 0, fmt.Errorf("caching: SBS %d: caching: flow solve: %w", n, err)
		}
		for t := 0; t < in.T; t++ {
			dst := ws.plans[t][n]
			if net.items == nil {
				for k := 0; k < in.K; k++ {
					if g.Flow(net.hold[t][k]) > 0 {
						dst[k] = 1
					} else {
						dst[k] = 0
					}
				}
				continue
			}
			for k := range dst {
				dst[k] = 0
			}
			for ci, k := range net.items {
				if g.Flow(net.hold[t][ci]) > 0 {
					dst[k] = 1
				}
			}
		}
		total += ws.objectiveSBS(n, rewards)
	}
	return ws.plans, total, nil
}

// objectiveSBS evaluates SBS n's P1 objective from its placement rows in
// ws.plans, replicating Subproblem.Objective's iteration order bit for
// bit. On a pruned network only candidate items are visited: excluded
// items carry placement 0, reward 0 and are never initially cached (the
// pruning contract), so their terms are exact zeros whose omission cannot
// change the float accumulation.
func (ws *Workspace) objectiveSBS(n int, rewards [][][]float64) float64 {
	in := ws.in
	beta := in.Beta[n]
	items := ws.nets[n].items
	var obj float64
	// The two accumulations per term are kept separate, exactly as in
	// Subproblem.Objective: fusing them would round differently.
	term := func(t, k int, row, cur []float64) {
		v := cur[k]
		prev := 0.0
		if t > 0 {
			prev = ws.plans[t-1][n][k]
		} else if ws.initial[n][k] >= 0.5 {
			prev = 1
		}
		if d := v - prev; d > 0 {
			obj += beta * d
		}
		obj -= row[k] * v
	}
	for t := 0; t < in.T; t++ {
		row := rewards[t][n]
		cur := ws.plans[t][n]
		if items == nil {
			for k := 0; k < in.K; k++ {
				term(t, k, row, cur)
			}
		} else {
			for _, k := range items {
				term(t, k, row, cur)
			}
		}
	}
	return obj
}
