package loadbalance

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// referenceSolveAll is the pre-workspace P2 sweep, kept verbatim as the
// byte-exactness oracle: per (t, n) it constructs the subproblem and
// solves it with SlotProblem.Solve, warm-starting from the previous
// iteration's plans.
func referenceSolveAll(t *testing.T, in *model.Instance, mu [][][]float64, warm []model.LoadPlan, opts convex.Options) ([]model.LoadPlan, float64) {
	t.Helper()
	plans := make([]model.LoadPlan, in.T)
	var total float64
	for tt := 0; tt < in.T; tt++ {
		plans[tt] = model.NewLoadPlan(in.Classes, in.K)
		var slot float64
		for n := 0; n < in.N; n++ {
			var muRow []float64
			if mu != nil && mu[tt] != nil {
				muRow = mu[tt][n]
			}
			var start []float64
			if warm != nil && warm[tt] != nil {
				start = make([]float64, in.Classes[n]*in.K)
				for m := 0; m < in.Classes[n]; m++ {
					copy(start[m*in.K:(m+1)*in.K], warm[tt][n][m])
				}
			}
			sp := ForInstance(in, tt, n, muRow, nil)
			y, obj, err := sp.Solve(start, opts)
			if err != nil {
				t.Fatalf("reference solve (t=%d, n=%d): %v", tt, n, err)
			}
			slot += obj
			for m := 0; m < in.Classes[n]; m++ {
				copy(plans[tt][n][m], y[m*in.K:(m+1)*in.K])
			}
		}
		total += slot
	}
	return plans, total
}

func randomMu(rng *rand.Rand, in *model.Instance, scale float64) [][][]float64 {
	mu := make([][][]float64, in.T)
	for t := range mu {
		mu[t] = make([][]float64, in.N)
		for n := range mu[t] {
			mu[t][n] = make([]float64, in.Classes[n]*in.K)
			for i := range mu[t][n] {
				mu[t][n][i] = rng.Float64() * scale
			}
		}
	}
	return mu
}

// zeroMu returns all-zero multipliers for in.
func zeroMu(in *model.Instance) [][][]float64 {
	return randomMu(rand.New(rand.NewPCG(0, 0)), in, 0)
}

// kernelSweep is SolveDual on the dual kernel alone: every slot of ws
// runs kernelDual under its μ row, bypassing the closed form of ŵ ≡ 0
// slots, and the total sums in SolveDual's order.
func kernelSweep(tb testing.TB, ws *Workspace, mu [][][]float64, opts convex.Options) float64 {
	tb.Helper()
	for i := range ws.slots {
		s := &ws.slots[i]
		obj, err := s.kernelDual(mu[s.t][s.n], opts)
		if err != nil {
			tb.Fatal(err)
		}
		ws.objs[i] = obj
	}
	var total float64
	for t := 0; t < ws.in.T; t++ {
		var slot float64
		for n := 0; n < ws.in.N; n++ {
			slot += ws.objs[t*ws.in.N+n]
		}
		total += slot
	}
	return total
}

// TestWorkspaceDualMatchesReference drives a workspace through a warm-
// started dual-iteration sequence — the access pattern of Algorithm 1 —
// and checks each iteration is byte-identical to the reference path:
// same iterates, same total objective. The instances have ŵ > 0, where
// every dual solve runs the kernel; TestDualKernelMatchesReference drives
// the kernel on ŵ ≡ 0 too.
func TestWorkspaceDualMatchesReference(t *testing.T) {
	for _, sbsCost := range []float64{0.1, 0.3} {
		cfg := workload.PaperDefault()
		cfg.N = 2
		cfg.T = 4
		cfg.K = 10
		cfg.ClassesPerSBS = 3
		cfg.OmegaSBSRatio = sbsCost
		in, err := workload.BuildInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}

		ws := NewWorkspace()
		ws.Bind(in)
		rng := rand.New(rand.NewPCG(5, uint64(sbsCost*10)))
		opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
		var warm []model.LoadPlan
		for iter := 0; iter < 6; iter++ {
			mu := randomMu(rng, in, 2.0)
			wantPlans, wantTotal := referenceSolveAll(t, in, mu, warm, opts)
			warm = wantPlans

			gotTotal, err := ws.SolveDual(context.Background(), mu, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotTotal != wantTotal {
				t.Fatalf("ωSBS=%g iter %d: workspace total %v, reference %v", sbsCost, iter, gotTotal, wantTotal)
			}
			for tt := 0; tt < in.T; tt++ {
				for n := 0; n < in.N; n++ {
					y := ws.DualY(tt, n)
					for m := 0; m < in.Classes[n]; m++ {
						for k := 0; k < in.K; k++ {
							if y[m*in.K+k] != wantPlans[tt][n][m][k] {
								t.Fatalf("ωSBS=%g iter %d (t=%d, n=%d, m=%d, k=%d): workspace %v, reference %v",
									sbsCost, iter, tt, n, m, k, y[m*in.K+k], wantPlans[tt][n][m][k])
							}
						}
					}
				}
			}
			if exported := ws.ExportPlans(); !reflect.DeepEqual(exported, wantPlans) {
				t.Fatalf("ωSBS=%g iter %d: exported plans diverge from reference", sbsCost, iter)
			}
		}
	}
}

// referenceDual runs slot s's dual solve for the μ row mu through the
// reference SlotProblem.Solve from the slot's current iterate, leaving the
// iterate untouched. It returns the solution, its objective and the
// gradient steps taken.
func referenceDual(tb testing.TB, in *model.Instance, s *slotState, mu []float64, opts convex.Options) ([]float64, float64, int) {
	tb.Helper()
	steps := mGradSteps.Value()
	y, value, err := ForInstance(in, s.t, s.n, mu, nil).Solve(append([]float64(nil), s.y...), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return y, value, int(mGradSteps.Value() - steps)
}

// TestDualKernelMatchesReference drives the dual kernel through both of
// its dual loop variants (ŵ ≡ 0 or not) on dense and sparse planes, from
// zero duals and from random ones, with a bandwidth loose enough that the
// θ = 0 clamp is the projection and one tight enough that the bisection
// fallback runs. Each warm-started iteration must match the reference
// SlotProblem.Solve bit for bit, slot by slot (iterate, objective and
// gradient-step count) and over the whole sweep. A ŵ > 0 sweep is
// SolveDual. A ŵ ≡ 0 sweep runs the kernel directly (kernelSweep), except
// under zero duals on the tight bandwidth and a dense plane: there the
// closed form's point (y = 1 wherever w > 0) breaks the bandwidth at
// every slot, so SolveDual reaches the kernel through the fallback. Then pinRounds drives the pin
// certificate on the same planes.
func TestDualKernelMatchesReference(t *testing.T) {
	for _, c := range []struct {
		sbsCost, bandwidth float64
		sparse             bool
	}{
		{0, 30, false}, {0.3, 30, false}, {0, 30, true}, {0.3, 30, true},
		{0, 1, false}, {0.3, 1, false}, {0, 1, true}, {0.3, 1, true},
	} {
		cfg := workload.PaperDefault()
		cfg.N = 2
		cfg.T = 3
		cfg.K = 10
		cfg.ClassesPerSBS = 3
		cfg.OmegaSBSRatio = c.sbsCost
		cfg.Bandwidth = c.bandwidth
		var wopts []workload.Option
		if c.sparse {
			wopts = append(wopts, workload.WithSparse(3))
		}
		in, err := workload.BuildInstanceWith(cfg, wopts...)
		if err != nil {
			t.Fatal(err)
		}
		ws := NewWorkspace()
		ws.Bind(in)
		if sparse := ws.slots[0].act != nil; sparse != c.sparse {
			t.Fatalf("%+v: plane density does not match the case", c)
		}

		rng := rand.New(rand.NewPCG(17, uint64(c.bandwidth)))
		opts := convex.Options{StepTol: 1e-7, MaxIter: 600}
		var warm []model.LoadPlan
		binding := 0
		for iter := 0; iter < 6; iter++ {
			mu := randomMu(rng, in, 0.5)
			if iter%2 == 0 { // zero duals, as a cold dual loop starts
				mu = zeroMu(in)
			}
			type reference struct {
				y     []float64
				value float64
			}
			want := make([]reference, len(ws.slots))
			steps := 0
			for i := range ws.slots {
				s := &ws.slots[i]
				y, value, n := referenceDual(t, in, s, mu[s.t][s.n], opts)
				want[i] = reference{y, value}
				steps += n
			}
			wantPlans, wantTotal := referenceSolveAll(t, in, mu, warm, opts)
			warm = wantPlans

			stepsBefore, fallbacks := mGradSteps.Value(), mExactFallbacks.Value()
			var gotTotal float64
			switch fallback := c.bandwidth == 1 && !c.sparse && iter%2 == 0; {
			case c.sbsCost == 0 && !fallback:
				gotTotal = kernelSweep(t, ws, mu, opts)
			default:
				if gotTotal, err = ws.SolveDual(context.Background(), mu, opts); err != nil {
					t.Fatal(err)
				}
				wantFallbacks := 0
				if c.sbsCost == 0 {
					wantFallbacks = len(ws.slots)
				}
				if got := int(mExactFallbacks.Value() - fallbacks); got != wantFallbacks {
					t.Fatalf("%+v iter %d: %d closed-form fallbacks, want %d", c, iter, got, wantFallbacks)
				}
			}
			if got := int(mGradSteps.Value() - stepsBefore); got != steps {
				t.Fatalf("%+v iter %d: kernel took %d gradient steps, reference %d", c, iter, got, steps)
			}
			for i := range ws.slots {
				s := &ws.slots[i]
				for j, v := range s.y {
					if math.Float64bits(v) != math.Float64bits(want[i].y[j]) {
						t.Fatalf("%+v iter %d slot %d: kernel y[%d] = %v, reference %v", c, iter, i, j, v, want[i].y[j])
					}
				}
				if math.Float64bits(ws.objs[i]) != math.Float64bits(want[i].value) {
					t.Fatalf("%+v iter %d slot %d: kernel objective %v, reference %v", c, iter, i, ws.objs[i], want[i].value)
				}
				var load float64
				for j, v := range s.y {
					load += s.lambda[j] * v
				}
				if load > s.bw-1e-6 {
					binding++
				}
			}
			if gotTotal != wantTotal || !reflect.DeepEqual(ws.ExportPlans(), wantPlans) {
				t.Fatalf("%+v iter %d: workspace diverges from the reference sweep", c, iter)
			}
		}
		if tight := c.bandwidth == 1; tight != (binding > 0) {
			t.Fatalf("%+v: %d binding slot solves, want them exactly on the tight bandwidth", c, binding)
		}
		pinRounds(t, fmt.Sprintf("%+v", c), ws, rng, opts)
	}
}

// TestSolveDualRejectsInvalidMu checks that SolveDual admits only the μ
// its exactness argument covers: one finite, non-negative row per
// (t, n). A negative μ on a coordinate without demand would move that
// coordinate in the reference while the kernel leaves it at 0.
func TestSolveDualRejectsInvalidMu(t *testing.T) {
	in := &model.Instance{
		N: 1, K: 3, T: 1,
		Classes:   []int{1},
		CacheCap:  []int{1},
		Bandwidth: []float64{1.95},
		OmegaBS:   [][]float64{{1}},
		OmegaSBS:  [][]float64{{0}},
		Beta:      []float64{1},
	}
	in.Demand = model.NewDemand(1, in.Classes, in.K)
	in.Demand.Set(0, 0, 0, 0, 1)
	in.Demand.Set(0, 0, 0, 1, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Bind(in)
	opts := convex.Options{StepTol: 1e-7, MaxIter: 300}
	for _, c := range []struct {
		name string
		mu   [][][]float64
	}{
		{"nil", nil},
		{"short horizon", [][][]float64{}},
		{"nil slot", [][][]float64{nil}},
		{"nil row", [][][]float64{{nil}}},
		{"short row", [][][]float64{{{0.1, 0.1}}}},
		{"negative without demand", [][][]float64{{{0.1, 0.1, -1}}}},
		{"negative with demand", [][][]float64{{{-0.1, 0.1, 0}}}},
		{"NaN", [][][]float64{{{0.1, math.NaN(), 0}}}},
		{"+Inf", [][][]float64{{{0.1, 0.1, math.Inf(1)}}}},
	} {
		if _, err := ws.SolveDual(context.Background(), c.mu, opts); err == nil {
			t.Errorf("%s μ accepted", c.name)
		}
	}
	if _, err := ws.SolveDual(context.Background(), [][][]float64{{{0.1, 0.1, 0}}}, opts); err != nil {
		t.Fatalf("valid μ rejected: %v", err)
	}

	// Over many slots, a bad entry in the last row must be caught before
	// any slot is solved: no iterate may move.
	multi := paperInstance(t, nil)
	ws.Bind(multi)
	rng := rand.New(rand.NewPCG(3, 4))
	short := convex.Options{StepTol: 1e-12, MaxIter: 3}
	if _, err := ws.SolveDual(context.Background(), randomMu(rng, multi, 0.5), short); err != nil {
		t.Fatal(err)
	}
	before := make([][]float64, len(ws.slots))
	for i := range ws.slots {
		before[i] = append([]float64(nil), ws.slots[i].y...)
	}
	mu := randomMu(rng, multi, 0.5)
	last := mu[multi.T-1][multi.N-1]
	last[len(last)-1] = math.NaN()
	if _, err := ws.SolveDual(context.Background(), mu, short); err == nil {
		t.Fatal("NaN in the last μ row accepted")
	}
	for i := range ws.slots {
		for j, v := range before[i] {
			if math.Float64bits(ws.slots[i].y[j]) != math.Float64bits(v) {
				t.Fatalf("rejected solve moved slot %d y[%d] from %v to %v", i, j, v, ws.slots[i].y[j])
			}
		}
	}
	last[len(last)-1] = 0
	if _, err := ws.SolveDual(context.Background(), mu, short); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ws.slots[0].y, before[0]) {
		t.Fatal("the valid μ leaves slot 0 where it was; the check above shows nothing")
	}
}

// TestWorkspaceRecoverMatchesReference checks the workspace recovery —
// the greedy path and the kernel — against OptimalGivenPlacement bit for
// bit, and that it leaves the dual iterates untouched. The kernel runs on
// dense planes and on sparse ones, with a bandwidth that binds (the
// bisection of projection.BoxKnapsack) and one that does not, and on
// planes where ŵ·λ ≡ 0 at an SBS with ŵ ≢ 0: one with demand only in a
// class without SBS cost, and one without demand at all.
func TestWorkspaceRecoverMatchesReference(t *testing.T) {
	for _, c := range []struct {
		sbsCost, bandwidth        float64
		sparse, tight, zeroPlanes bool
	}{
		{0, 30, false, false, false},
		{0.3, 30, false, false, false},
		{0, 30, true, false, false},
		{0.3, 30, true, false, false},
		{0.3, 1, false, true, false},
		{0.3, 0.1, true, true, false},
		{0.3, 30, false, false, true},
	} {
		cfg := workload.PaperDefault()
		cfg.N = 2
		cfg.T = 4
		cfg.K = 10
		cfg.ClassesPerSBS = 3
		cfg.OmegaSBSRatio = c.sbsCost
		cfg.Bandwidth = c.bandwidth
		var wopts []workload.Option
		if c.sparse {
			wopts = append(wopts, workload.WithSparse(3))
		}
		in, err := workload.BuildInstanceWith(cfg, wopts...)
		if err != nil {
			t.Fatal(err)
		}
		if c.zeroPlanes {
			// SBS 1's class 0 carries no SBS cost; at slot 2 it has the only
			// demand of the plane, and at slot 1 SBS 0 has none.
			in.OmegaSBS[1][0] = 0
			for m := 0; m < in.Classes[0]; m++ {
				for k := 0; k < in.K; k++ {
					in.Demand.Set(1, 0, m, k, 0)
					if m > 0 {
						in.Demand.Set(2, 1, m, k, 0)
					}
				}
			}
		}

		ws := NewWorkspace()
		ws.Bind(in)
		if c.sparse && ws.slots[0].act == nil {
			t.Fatal("sparse input bound a dense plane — positions without demand are not exercised")
		}
		if c.zeroPlanes {
			if s := &ws.slots[1*in.N+0]; s.greedy || !s.whZero || len(s.act) != 0 || s.act == nil {
				t.Fatalf("slot (1, 0) is not an all-zero plane at an SBS with ŵ ≢ 0")
			}
			if s := &ws.slots[2*in.N+1]; s.greedy || !s.whZero || s.act == nil || len(s.act) == 0 {
				t.Fatalf("slot (2, 1) does not have ŵ·λ ≡ 0 with demand at an SBS with ŵ ≢ 0")
			}
		}
		opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
		rng := rand.New(rand.NewPCG(9, uint64(c.sbsCost*10)))
		if _, err := ws.SolveDual(context.Background(), randomMu(rng, in, 2.0), opts); err != nil {
			t.Fatal(err)
		}
		savedY := make([][]float64, in.T*in.N)
		for i := range savedY {
			savedY[i] = append([]float64(nil), ws.slots[i].y...)
		}

		xPlans := make([]model.CachePlan, in.T)
		for tt := range xPlans {
			xPlans[tt] = model.NewCachePlan(in.N, in.K)
			for n := 0; n < in.N; n++ {
				for k := 0; k < in.K; k++ {
					if rng.Float64() < 0.4 {
						xPlans[tt][n][k] = 1
					}
				}
			}
		}

		// OptimalGivenPlacement solves at the standalone setting, which
		// zero options select.
		traj := model.NewTrajectory(in)
		if err := ws.Recover(context.Background(), xPlans, traj, convex.Options{}); err != nil {
			t.Fatal(err)
		}
		binding := 0
		for tt := 0; tt < in.T; tt++ {
			wantY, err := OptimalGivenPlacement(in, tt, xPlans[tt])
			if err != nil {
				t.Fatal(err)
			}
			for n := range wantY {
				var load float64
				for m := range wantY[n] {
					for k, v := range wantY[n][m] {
						if got := traj[tt].Y[n][m][k]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("%+v (t=%d, n=%d, m=%d, k=%d): recovered %v, OptimalGivenPlacement %v", c, tt, n, m, k, got, v)
						}
						load += in.Demand.At(tt, n, m, k) * v
					}
				}
				if load > in.BandwidthAt(tt, n)-1e-6 {
					binding++
				}
			}
			if !reflect.DeepEqual(traj[tt].X, xPlans[tt]) {
				t.Fatalf("%+v slot %d: recovered X diverges", c, tt)
			}
		}
		if c.tight != (binding > 0) {
			t.Fatalf("%+v: %d binding recoveries, want them exactly on the tight bandwidth", c, binding)
		}
		for i := range savedY {
			if !reflect.DeepEqual(savedY[i], ws.slots[i].y) {
				t.Fatalf("%+v: recovery clobbered the dual iterate of slot %d", c, i)
			}
		}
	}
}

// TestSteadyStateDualSolveZeroAllocs is the allocation regression guard of
// the perf work: once a workspace is warm, a per-slot dual solve must not
// touch the heap at all.
func TestSteadyStateDualSolveZeroAllocs(t *testing.T) {
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 3
	cfg.K = 10
	cfg.ClassesPerSBS = 3
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(13, 14))
	opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
	mu := randomMu(rng, in, 2.0)
	// Warm every slot (grows all scratch to its steady-state size).
	if _, err := ws.SolveDual(context.Background(), mu, opts); err != nil {
		t.Fatal(err)
	}

	s := &ws.slots[0]
	muRow := mu[0][0]
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.solveDual(muRow, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state slot dual solve allocates %.0f objects/op, want 0", allocs)
	}
	// A moving μ (the service regime: every solve is a full FISTA run,
	// not a restart at a fixed point) and zero μ stay allocation-free too.
	rows := [][]float64{randomMu(rng, in, 2.0)[0][0], zeroMu(in)[0][0], muRow}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.solveDual(rows[i%len(rows)], opts); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("moving-μ slot dual solve allocates %.0f objects/op, want 0", allocs)
	}

	// The full (t, n) sweep is also allocation-free when it runs on the
	// caller's goroutine (the worker pool spawns helpers only when spare
	// cores exist, which is a legitimate allocation).
	if runtime.GOMAXPROCS(0) == 1 {
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := ws.SolveDual(context.Background(), mu, opts); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("steady-state SolveDual allocates %.0f objects/op, want 0", allocs)
		}
	}
}
