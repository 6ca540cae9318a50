package core

import (
	"context"
	"fmt"
	"math"

	"edgecache/internal/model"
	"edgecache/internal/parallel"
)

// ShardSolution is the outcome of one per-SBS shard of SolveSharded. The
// shard was solved on the SBS's compact sub-instance (model.CompactSBS),
// so every buffer it carries scales with the SBS's candidate set — the
// items it ever sees demand for, plus its initial cache — rather than the
// global catalogue size K. Placements and Loads store the trajectory
// sparsely for the same reason: at web scale (K ~ 10⁶) a dense [T][M][K]
// plane per SBS would dwarf the problem being solved.
type ShardSolution struct {
	// SBS is the global SBS index n this shard solved.
	SBS int
	// Candidates are the sorted global content ids of the shard's compact
	// catalogue; compact item ci stands for Candidates[ci].
	Candidates []int
	// LowerBound, Cost, Gap, Iterations and Converged mirror the Result
	// fields of the shard's own Algorithm 1 run.
	LowerBound float64
	Cost       model.CostBreakdown
	Gap        float64
	Iterations int
	Converged  bool
	// Placements[t] lists the global content ids cached at slot t,
	// ascending.
	Placements [][]int
	// Loads[t][i][m] is the load fraction y^t_{m,k} of class m on cached
	// item k = Placements[t][i]. Items outside Placements[t] carry no
	// load: the recovered feasible split obeys y ≤ x exactly, so the
	// sparse form is lossless.
	Loads [][][]float64
}

// ShardedResult aggregates the per-SBS shards of SolveSharded. LowerBound
// and Cost are sums (the objective and the dual bound separate across
// SBSs), Iterations is the maximum across shards (the distributed
// wall-clock), Converged is the conjunction, and Gap is recomputed from
// the aggregate bounds with Result.Gap's definition,
// max(0, (UB − LB) / max(|UB|, 1)).
type ShardedResult struct {
	Shards     []ShardSolution // index n
	LowerBound float64
	Cost       model.CostBreakdown
	Gap        float64
	Iterations int
	Converged  bool
}

// Densify expands the sharded trajectory into a full dense trajectory of
// the original instance. This is O(T·N·(M·K)) memory — fine for test and
// report sizes, deliberately avoided on web-scale instances, where the
// sparse ShardSolution form is the deliverable.
func (sr *ShardedResult) Densify(in *model.Instance) model.Trajectory {
	traj := model.NewTrajectory(in)
	for _, sh := range sr.Shards {
		n := sh.SBS
		for t := 0; t < in.T; t++ {
			for i, k := range sh.Placements[t] {
				traj[t].X[n][k] = 1
				for m := 0; m < in.Classes[n]; m++ {
					traj[t].Y[n][m][k] = sh.Loads[t][i][m]
				}
			}
		}
	}
	return traj
}

// SolveSharded solves the joint problem one SBS shard at a time: each SBS
// becomes an independent compact sub-instance over its own candidate set
// (model.Instance.CompactSBS) and runs Algorithm 1 on it, with the shards
// scheduled across the shared bounded worker pool. The objective and every
// constraint separate across SBSs, so the concatenation of shard optima is
// the joint optimum — the distributed deployment the paper names as
// future work (§VII) — while the compact catalogue keeps per-shard memory
// proportional to demand, not to K. Each shard is a plain Solve, which
// borrows its workspace from Solve's pool, so steady-state solver scratch
// is bounded by the worker count, not the SBS count.
//
// Options.InitialMu must be nil: global multiplier planes are shaped
// [T][N][M·K] and do not map onto compact shards. Every shard starts its
// duals from zero, exactly like a fresh Solve.
func SolveSharded(ctx context.Context, in *model.Instance, opts Options) (*ShardedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.InitialMu != nil {
		return nil, fmt.Errorf("core: sharded solve cannot warm-start from global multipliers (InitialMu must be nil)")
	}

	shards := make([]ShardSolution, in.N)
	err := parallel.For(ctx, in.N, 0, func(n int) error {
		sub, items, err := in.CompactSBS(n)
		if err != nil {
			return err
		}
		res, err := Solve(ctx, sub, opts)
		if err != nil {
			return fmt.Errorf("distributed SBS %d: %w", n, err)
		}

		sh := ShardSolution{
			SBS:        n,
			Candidates: items,
			LowerBound: res.LowerBound,
			Cost:       res.Cost,
			Gap:        res.Gap,
			Iterations: res.Iterations,
			Converged:  res.Converged,
			Placements: make([][]int, in.T),
			Loads:      make([][][]float64, in.T),
		}
		m := in.Classes[n]
		for t := 0; t < in.T; t++ {
			xt := res.Trajectory[t].X[0]
			yt := res.Trajectory[t].Y[0]
			for ci, v := range xt {
				if v < 0.5 {
					continue
				}
				sh.Placements[t] = append(sh.Placements[t], items[ci])
				load := make([]float64, m)
				for mm := 0; mm < m; mm++ {
					load[mm] = yt[mm][ci]
				}
				sh.Loads[t] = append(sh.Loads[t], load)
			}
		}
		shards[n] = sh
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	agg := &ShardedResult{Shards: shards, Converged: true}
	for n := range shards {
		sh := &shards[n]
		agg.LowerBound += sh.LowerBound
		agg.Cost.Total += sh.Cost.Total
		agg.Cost.BS += sh.Cost.BS
		agg.Cost.SBS += sh.Cost.SBS
		agg.Cost.Replacement += sh.Cost.Replacement
		agg.Cost.Replacements += sh.Cost.Replacements
		if sh.Iterations > agg.Iterations {
			agg.Iterations = sh.Iterations
		}
		agg.Converged = agg.Converged && sh.Converged
	}
	agg.Gap = math.Max(0, (agg.Cost.Total-agg.LowerBound)/math.Max(math.Abs(agg.Cost.Total), 1))
	return agg, nil
}
