package core

import (
	"context"
	"sync"

	"edgecache/internal/caching"
	"edgecache/internal/loadbalance"
	"edgecache/internal/model"
)

// workspace bundles the reusable solver state of one primal-dual run: the
// P1 flow networks, the P2 per-(t, n) subproblem state with its FISTA and
// projection scratch, and the dual-reward buffer. solve binds it to the
// instance on entry, so one workspace amortises all per-instance
// precomputation and steady-state allocation across the ~MaxIter dual
// iterations, and, pooled across Solves (workspaces), the buffers across
// the overlapping window solves of a receding-horizon controller. Every
// solve rebinds it from scratch, so a reused workspace carries no solver
// state into the next solve: results are bit-identical to a fresh
// workspace's.
//
// A workspace serves one solve at a time.
type workspace struct {
	p1      caching.Workspace
	p2      loadbalance.Workspace
	rewards [][][]float64 // ρ^t_{n,k} buffer, [t][n][k]
}

// workspaces holds the idle workspaces of this process. Solve borrows one
// for its run and puts it back, released, on every normal return, so
// solver scratch scales with the number of concurrently running Solves,
// not with the number of callers or controller versions. A Result shares
// no memory with the workspace that produced it, so a returned workspace
// may go straight to the next Solve.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release drops every reference the workspace holds to its last
// instance and keeps the buffers, so an idle pooled workspace does not
// keep that instance reachable for the garbage collector to mark.
func (ws *workspace) release() {
	ws.p1.Release()
	ws.p2.Release()
}

// bind sizes the workspace for an instance, reusing buffers whose capacity
// suffices. Nothing of the previous bind's solver state carries over.
func (ws *workspace) bind(in *model.Instance) {
	// The P1 networks prune to each SBS's candidate set — items with
	// demand somewhere in the window or initially cached. Dual rewards
	// vanish outside that set (the multiplier of a never-requested,
	// never-cached coordinate stays at zero), so pruning is exact; see
	// caching.BindPruned for the argument and the β = 0 tie caveat. On
	// dense instances every candidate row spans the catalogue and the
	// pruned bind degenerates to the plain one.
	cands := make([][]int, in.N)
	pruned := false
	for n := 0; n < in.N; n++ {
		if c := in.Candidates(n); len(c) < in.K {
			cands[n] = c
			pruned = true
		}
	}
	if !pruned {
		cands = nil
	}
	ws.p1.BindPruned(in, cands)
	ws.p2.Bind(in)
	if cap(ws.rewards) < in.T {
		ws.rewards = make([][][]float64, in.T)
	} else {
		ws.rewards = ws.rewards[:in.T]
	}
	for t := range ws.rewards {
		if cap(ws.rewards[t]) < in.N {
			ws.rewards[t] = make([][]float64, in.N)
		} else {
			ws.rewards[t] = ws.rewards[t][:in.N]
		}
		for n := range ws.rewards[t] {
			if cap(ws.rewards[t][n]) < in.K {
				ws.rewards[t][n] = make([]float64, in.K)
			} else {
				ws.rewards[t][n] = ws.rewards[t][n][:in.K]
			}
		}
	}
}

// linearizedPlacements computes a heuristic placement trajectory by
// solving the caching subproblem P1 with the true replacement cost β and
// per-(item, slot) rewards equal to the linearised operating-cost saving
// of caching the item: r^t_{n,k} = ∂f_t/∂u · Σ_m ω_m λ^t_{m,k} evaluated
// at y = 0 (so ∂f/∂u = 2A_t). It is exact at β = 0 up to bandwidth
// effects, switching-cost aware at every β, and serves as the upper-bound
// seed of Solve. The rewards are written into the reused buffer and
// solved on the reused P1 networks; the returned plans alias the
// workspace.
func (ws *workspace) linearizedPlacements(ctx context.Context, in *model.Instance) ([]model.CachePlan, error) {
	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			omega := in.OmegaBS[n]
			var a float64
			in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
				a += omega[m] * rate
			})
			r := ws.rewards[t][n]
			for k := range r {
				r[k] = 0
			}
			in.Demand.ForEachActive(t, n, func(m, k int, rate float64) {
				r[k] += 2 * a * omega[m] * rate
			})
		}
	}
	plans, _, err := ws.p1.SolveAll(ctx, ws.rewards)
	return plans, err
}
