package loadbalance

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
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

// TestWorkspaceDualMatchesReference drives a workspace through a warm-
// started dual-iteration sequence — the access pattern of Algorithm 1 —
// and checks each iteration is byte-identical to the reference path:
// same iterates, same total objective.
func TestWorkspaceDualMatchesReference(t *testing.T) {
	for _, sbsCost := range []float64{0, 0.3} {
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

// genericDual runs slot s's dual solve through convex.Workspace.Minimize
// over the slot's view — the path the dual kernel replaces — from the
// slot's current iterate, leaving the iterate untouched.
func genericDual(t testing.TB, s *slotState, mu []float64, opts convex.Options) ([]float64, float64, int) {
	t.Helper()
	x0 := append([]float64(nil), s.gather(s.yC, s.y)...)
	s.mu = nil
	if mu != nil {
		s.mu = s.gather(s.muC, mu)
	}
	var cw convex.Workspace
	res, err := cw.Minimize(s.prob, x0, make([]float64, len(x0)), s.applyDefaults(opts))
	s.mu = nil
	if err != nil {
		t.Fatal(err)
	}
	return res.X, res.Value, res.Iterations
}

// TestDualKernelMatchesReference drives the dual kernel through all four
// of its loop variants (ŵ ≡ 0 or not × μ nil or not) on dense and sparse
// planes, with a bandwidth loose enough that the θ = 0 clamp is the
// projection and one tight enough that the bisection fallback runs. Each
// warm-started iteration must match the generic convex path bit for bit
// (iterate, objective and gradient-step count) and the reference
// SlotProblem.Solve sweep value for value. Then pinRounds drives the pin
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
		if ws.slots[0].dense == c.sparse {
			t.Fatalf("%+v: plane density does not match the case", c)
		}

		rng := rand.New(rand.NewPCG(17, uint64(c.bandwidth)))
		opts := convex.Options{StepTol: 1e-7, MaxIter: 600}
		var warm []model.LoadPlan
		binding := 0
		for iter := 0; iter < 6; iter++ {
			var mu [][][]float64 // nil on even iterations: the nil-μ variants
			if iter%2 == 1 {
				mu = randomMu(rng, in, 0.5)
			}
			type generic struct {
				y     []float64
				value float64
			}
			want := make([]generic, len(ws.slots))
			steps := 0
			for i, s := range ws.slots {
				var row []float64
				if mu != nil {
					row = mu[s.t][s.n]
				}
				y, value, n := genericDual(t, s, row, opts)
				want[i] = generic{y, value}
				steps += n
			}
			wantPlans, wantTotal := referenceSolveAll(t, in, mu, warm, opts)
			warm = wantPlans

			stepsBefore := mGradSteps.Value()
			gotTotal, err := ws.SolveDual(context.Background(), mu, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(mGradSteps.Value() - stepsBefore); got != steps {
				t.Fatalf("%+v iter %d: kernel took %d gradient steps, generic path %d", c, iter, got, steps)
			}
			for i, s := range ws.slots {
				got := s.gather(s.yC, s.y)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i].y[j]) {
						t.Fatalf("%+v iter %d slot %d: kernel y[%d] = %v, generic %v", c, iter, i, j, got[j], want[i].y[j])
					}
				}
				if math.Float64bits(ws.objs[i]) != math.Float64bits(want[i].value) {
					t.Fatalf("%+v iter %d slot %d: kernel objective %v, generic %v", c, iter, i, ws.objs[i], want[i].value)
				}
				var load float64
				for j, v := range got {
					load += s.vlam[j] * v
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

// TestWorkspaceRecoverMatchesReference checks the workspace recovery —
// greedy and FISTA paths, on dense planes and on sparse ones (where the
// FISTA path runs over the compact active view) — against
// OptimalGivenPlacement, and that it leaves the dual iterates untouched.
func TestWorkspaceRecoverMatchesReference(t *testing.T) {
	for _, c := range []struct {
		sbsCost float64
		opts    []workload.Option
	}{
		{0, nil},
		{0.3, nil},
		{0, []workload.Option{workload.WithSparse(3)}},
		{0.3, []workload.Option{workload.WithSparse(3)}},
	} {
		sbsCost := c.sbsCost
		cfg := workload.PaperDefault()
		cfg.N = 2
		cfg.T = 4
		cfg.K = 10
		cfg.ClassesPerSBS = 3
		cfg.OmegaSBSRatio = sbsCost
		in, err := workload.BuildInstanceWith(cfg, c.opts...)
		if err != nil {
			t.Fatal(err)
		}

		ws := NewWorkspace()
		ws.Bind(in)
		if c.opts != nil && ws.slots[0].dense {
			t.Fatal("sparse input bound a dense plane — the compact view is not exercised")
		}
		opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
		rng := rand.New(rand.NewPCG(9, uint64(sbsCost*10)))
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

		traj, err := ws.Recover(context.Background(), xPlans, opts)
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < in.T; tt++ {
			wantY, err := OptimalGivenPlacement(in, tt, xPlans[tt], opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traj[tt].Y, wantY) {
				t.Fatalf("ωSBS=%g slot %d: recovered split diverges from OptimalGivenPlacement", sbsCost, tt)
			}
			if !reflect.DeepEqual(traj[tt].X, xPlans[tt]) {
				t.Fatalf("ωSBS=%g slot %d: recovered X diverges", sbsCost, tt)
			}
		}
		for i := range savedY {
			if !reflect.DeepEqual(savedY[i], ws.slots[i].y) {
				t.Fatalf("ωSBS=%g: recovery clobbered the dual iterate of slot %d", sbsCost, i)
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

	s := ws.slots[0]
	muRow := mu[0][0]
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.solveDual(muRow, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state slot dual solve allocates %.0f objects/op, want 0", allocs)
	}
	// A moving μ (the service regime: every solve is a full FISTA run,
	// not a restart at a fixed point) and nil μ stay allocation-free too.
	rows := [][]float64{randomMu(rng, in, 2.0)[0][0], nil, muRow}
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
