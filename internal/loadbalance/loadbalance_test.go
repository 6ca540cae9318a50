package loadbalance

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// singleVarProblem: one class, one content, ω = 1, ŵ = 0, λ = 2, B = 10:
// F(y) = (2 − 2y)² + μ·y over y ∈ [0, 1].
func singleVarProblem(mu float64) *SlotProblem {
	p := &SlotProblem{
		M:         1,
		K:         1,
		Lambda:    []float64{2},
		OmegaBS:   []float64{1},
		OmegaSBS:  []float64{0},
		Bandwidth: 10,
	}
	if mu != 0 {
		p.Mu = []float64{mu}
	}
	return p
}

func TestSingleVariableUnconstrained(t *testing.T) {
	y, obj, err := singleVarProblem(0).Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-7 {
		t.Fatalf("y = %g, want 1 (serve everything at the SBS)", y[0])
	}
	if math.Abs(obj) > 1e-10 {
		t.Fatalf("objective = %g, want 0", obj)
	}
}

func TestSingleVariableWithDualPenalty(t *testing.T) {
	// F = (2−2y)² + 4y: F' = −8 + 8y + 4 = 0 → y = 0.5, F = 1 + 2 = 3.
	y, obj, err := singleVarProblem(4).Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.5) > 1e-6 {
		t.Fatalf("y = %g, want 0.5", y[0])
	}
	if math.Abs(obj-3) > 1e-6 {
		t.Fatalf("objective = %g, want 3", obj)
	}
}

func TestBandwidthBinds(t *testing.T) {
	// λ = 2 but B = 1: y ≤ 0.5 at the knapsack, optimum sits there.
	p := singleVarProblem(0)
	p.Bandwidth = 1
	y, _, err := p.Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.5) > 1e-6 {
		t.Fatalf("y = %g, want 0.5 (bandwidth-limited)", y[0])
	}
}

func TestUpperBoundBinds(t *testing.T) {
	p := singleVarProblem(0)
	p.Upper = []float64{0.25}
	y, _, err := p.Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.25) > 1e-7 {
		t.Fatalf("y = %g, want 0.25 (upper bound)", y[0])
	}
}

func TestSBSCostDiscouragesServing(t *testing.T) {
	// With ŵ = ω serving at the SBS costs as much as the BS; the optimum
	// balances: F = (2−2y)² + (2y)², F' = 0 → y = 0.5.
	p := singleVarProblem(0)
	p.OmegaSBS = []float64{1}
	y, _, err := p.Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-0.5) > 1e-6 {
		t.Fatalf("y = %g, want 0.5", y[0])
	}
}

func TestValidation(t *testing.T) {
	bad := map[string]*SlotProblem{
		"zero M":       {M: 0, K: 1, Lambda: []float64{1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0}},
		"short lambda": {M: 1, K: 2, Lambda: []float64{1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0}},
		"short omega":  {M: 2, K: 1, Lambda: []float64{1, 1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0, 0}},
		"neg band":     {M: 1, K: 1, Lambda: []float64{1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0}, Bandwidth: -1},
		"short mu":     {M: 1, K: 2, Lambda: []float64{1, 1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0}, Mu: []float64{1}},
		"short upper":  {M: 1, K: 2, Lambda: []float64{1, 1}, OmegaBS: []float64{1}, OmegaSBS: []float64{0}, Upper: []float64{1}},
	}
	for name, p := range bad {
		if _, _, err := p.Solve(nil, convex.Options{}); err == nil {
			t.Errorf("%s: Solve accepted invalid problem", name)
		}
	}
}

// TestGridSearchCrossCheck compares the solver against a dense grid on a
// 2-coordinate problem with an active knapsack.
func TestGridSearchCrossCheck(t *testing.T) {
	p := &SlotProblem{
		M:         2,
		K:         1,
		Lambda:    []float64{3, 1},
		OmegaBS:   []float64{1, 0.5},
		OmegaSBS:  []float64{0.1, 0.2},
		Bandwidth: 2,
		Mu:        []float64{0.3, 0.1},
	}
	y, obj, err := p.Solve(nil, convex.Options{})
	if err != nil {
		t.Fatal(err)
	}

	best := math.Inf(1)
	for i := 0; i <= 400; i++ {
		for j := 0; j <= 400; j++ {
			cand := []float64{float64(i) / 400, float64(j) / 400}
			if 3*cand[0]+1*cand[1] > 2 {
				continue
			}
			if v := p.Objective(cand); v < best {
				best = v
			}
		}
	}
	if obj > best+1e-3 {
		t.Fatalf("solver %g worse than grid %g", obj, best)
	}
	// Feasibility of the reported point.
	if 3*y[0]+y[1] > 2+1e-6 {
		t.Fatalf("bandwidth violated: %v", y)
	}
}

func paperInstance(t *testing.T, mutate func(*workload.InstanceConfig)) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 4
	cfg.K = 6
	cfg.ClassesPerSBS = 5
	cfg.CacheCap = 2
	cfg.Bandwidth = 8
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSolveAllShapesAndFeasibility checks the full (t, n) dual sweep at
// zero duals: one plan per slot, a non-negative objective, and every
// exported split within its slot's bandwidth.
func TestSolveAllShapesAndFeasibility(t *testing.T) {
	in := paperInstance(t, nil)
	ws := NewWorkspace()
	ws.Bind(in)
	total, err := ws.SolveDual(context.Background(), zeroMu(in), convex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plans := ws.ExportPlans()
	if len(plans) != in.T {
		t.Fatalf("plans cover %d slots, want %d", len(plans), in.T)
	}
	if total < 0 {
		t.Fatalf("total objective %g < 0 with zero duals", total)
	}
	for tt, y := range plans {
		// Bandwidth feasibility (upper bounds checked by CheckSlot with a
		// full-cache placement).
		x := model.NewCachePlan(in.N, in.K)
		for n := range x {
			for k := range x[n] {
				x[n][k] = 1
			}
		}
		dec := model.SlotDecision{X: x, Y: y}
		// Relax capacity for this check: only bandwidth/coupling matter.
		relaxed := *in
		caps := make([]int, in.N)
		for n := range caps {
			caps[n] = in.K
		}
		relaxed.CacheCap = caps
		if err := relaxed.CheckSlot(tt, dec, 1e-6); err != nil {
			t.Fatalf("slot %d infeasible: %v", tt, err)
		}
	}
}

// TestSolveAllMuShape checks the dual sweep rejects multipliers that do
// not cover the horizon.
func TestSolveAllMuShape(t *testing.T) {
	in := paperInstance(t, nil)
	ws := NewWorkspace()
	ws.Bind(in)
	if _, err := ws.SolveDual(context.Background(), make([][][]float64, 1), convex.Options{}); err == nil {
		t.Fatal("SolveDual accepted short mu")
	}
}

func TestOptimalGivenPlacementRespectsCoupling(t *testing.T) {
	in := paperInstance(t, nil)
	x := model.NewCachePlan(in.N, in.K)
	x[0][0] = 1
	x[0][3] = 1
	y, err := OptimalGivenPlacement(in, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < in.Classes[0]; m++ {
		for k := 0; k < in.K; k++ {
			if x[0][k] == 0 && y[0][m][k] > 1e-9 {
				t.Fatalf("served uncached content %d: y = %g", k, y[0][m][k])
			}
		}
	}
	if err := in.CheckSlot(0, model.SlotDecision{X: x, Y: y}, 1e-6); err != nil {
		t.Fatalf("recovered split infeasible: %v", err)
	}
}

func TestMoreCacheNeverHurts(t *testing.T) {
	in := paperInstance(t, nil)
	empty := model.NewCachePlan(in.N, in.K)
	one := empty.Clone()
	one[0][0] = 1
	two := one.Clone()
	two[0][1] = 1

	cost := func(x model.CachePlan) float64 {
		y, err := OptimalGivenPlacement(in, 0, x)
		if err != nil {
			t.Fatal(err)
		}
		return in.BSCost(0, y) + in.SBSCost(0, y)
	}
	c0, c1, c2 := cost(empty), cost(one), cost(two)
	if c1 > c0+1e-6 || c2 > c1+1e-6 {
		t.Fatalf("operating cost increased with cache: %g, %g, %g", c0, c1, c2)
	}
	if c0 != in.NoCachingCost()/float64(in.T) && c0 <= 0 {
		t.Fatalf("empty-cache cost %g suspicious", c0)
	}
}

// TestGreedyMatchesFISTA compares the ŵ = 0 greedy fast path of
// OptimalGivenPlacement against the generic FISTA path on the same
// problem: both must achieve the same BS cost.
func TestGreedyMatchesFISTA(t *testing.T) {
	in := paperInstance(t, func(cfg *workload.InstanceConfig) {
		cfg.Bandwidth = 3
		cfg.CacheCap = 3
	})
	x := model.NewCachePlan(in.N, in.K)
	x[0][0], x[0][2], x[0][4] = 1, 1, 1

	// Greedy path (ŵ = 0 in paperInstance).
	yGreedy, err := OptimalGivenPlacement(in, 0, x)
	if err != nil {
		t.Fatal(err)
	}

	// Generic path: solve the same slot problem directly.
	upper := make([]float64, in.Classes[0]*in.K)
	for m := 0; m < in.Classes[0]; m++ {
		copy(upper[m*in.K:(m+1)*in.K], x[0])
	}
	sp := ForInstance(in, 0, 0, nil, upper)
	yFlat, _, err := sp.Solve(nil, convex.Options{MaxIter: 20000, StepTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	yFISTA := model.NewLoadPlan(in.Classes, in.K)
	for m := 0; m < in.Classes[0]; m++ {
		copy(yFISTA[0][m], yFlat[m*in.K:(m+1)*in.K])
	}

	cg := in.BSCost(0, yGreedy)
	cf := in.BSCost(0, yFISTA)
	if math.Abs(cg-cf) > 1e-4*(1+cf) {
		t.Fatalf("greedy BS cost %g vs FISTA %g", cg, cf)
	}
	if cg > cf+1e-6 {
		t.Fatalf("greedy %g worse than FISTA %g — knapsack argument broken", cg, cf)
	}
	if err := in.CheckSlot(0, model.SlotDecision{X: x, Y: yGreedy}, 1e-6); err != nil {
		t.Fatalf("greedy split infeasible: %v", err)
	}
}

// TestOptimalGivenPlacementSettings pins the standalone P2 setting: with
// nonzero SBS weights (the FISTA path, not the greedy one),
// OptimalGivenPlacement must equal SlotProblem.Solve at MaxIter 3000 and
// StepTol 1e-10 bit for bit. The fixture caches every content, so the
// optimum is interior, and it is one where StepTol a decade either side
// stops some solve at a different iterate: the test tells them apart.
func TestOptimalGivenPlacementSettings(t *testing.T) {
	in := paperInstance(t, func(cfg *workload.InstanceConfig) {
		cfg.N = 2
		cfg.K = 20
		cfg.OmegaSBSRatio = 1
	})
	x := model.NewCachePlan(in.N, in.K)
	for n := 0; n < in.N; n++ {
		if allZero(in.OmegaSBS[n]) {
			t.Fatalf("SBS %d has zero SBS weights: the greedy path would run", n)
		}
		for k := range x[n] {
			x[n][k] = 1
		}
	}
	// solve is OptimalGivenPlacement's slot solve at the given StepTol.
	solve := func(tt, n int, stepTol float64) []float64 {
		upper := make([]float64, in.Classes[n]*in.K)
		for m := 0; m < in.Classes[n]; m++ {
			copy(upper[m*in.K:(m+1)*in.K], x[n])
		}
		y, _, err := ForInstance(in, tt, n, nil, upper).Solve(nil, convex.Options{MaxIter: 3000, StepTol: stepTol})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	differs := map[float64]bool{}
	for tt := 0; tt < in.T; tt++ {
		got, err := OptimalGivenPlacement(in, tt, x)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < in.N; n++ {
			want := solve(tt, n, 1e-10)
			for m := 0; m < in.Classes[n]; m++ {
				for k := 0; k < in.K; k++ {
					g, i := got[n][m][k], m*in.K+k
					if math.Float64bits(g) != math.Float64bits(want[i]) {
						t.Fatalf("slot %d SBS %d y[%d][%d] = %v, want %v", tt, n, m, k, g, want[i])
					}
				}
			}
			for _, tol := range []float64{1e-9, 1e-11} {
				for i, v := range solve(tt, n, tol) {
					differs[tol] = differs[tol] || math.Float64bits(v) != math.Float64bits(want[i])
				}
			}
		}
	}
	for _, tol := range []float64{1e-9, 1e-11} {
		if !differs[tol] {
			t.Errorf("StepTol %g gives the same splits as 1e-10: the fixture does not pin the setting", tol)
		}
	}
}

// Property-style check: on random slot problems, the solver's objective is
// never beaten by random feasible competitors.
func TestRandomSlotProblemsOptimality(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.IntN(3)
		k := 1 + rng.IntN(4)
		n := m * k
		p := &SlotProblem{
			M:         m,
			K:         k,
			Lambda:    make([]float64, n),
			OmegaBS:   make([]float64, m),
			OmegaSBS:  make([]float64, m),
			Bandwidth: rng.Float64() * 5,
			Mu:        make([]float64, n),
		}
		for i := range p.Lambda {
			p.Lambda[i] = rng.Float64() * 3
		}
		for i := 0; i < m; i++ {
			p.OmegaBS[i] = rng.Float64()
			p.OmegaSBS[i] = rng.Float64() * 0.1
		}
		for i := range p.Mu {
			p.Mu[i] = rng.Float64() * 2
		}
		_, obj, err := p.Solve(nil, convex.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 50; probe++ {
			cand := make([]float64, n)
			var load float64
			for i := range cand {
				cand[i] = rng.Float64()
				load += cand[i] * p.Lambda[i]
			}
			if load > p.Bandwidth {
				scale := p.Bandwidth / load
				for i := range cand {
					cand[i] *= scale
				}
			}
			if v := p.Objective(cand); v < obj-1e-5*(1+math.Abs(obj)) {
				t.Fatalf("trial %d: competitor %g beats solver %g", trial, v, obj)
			}
		}
	}
}
