package loadbalance

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/workload"
)

func sparseInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 3
	cfg.K = 30
	cfg.ClassesPerSBS = 3
	in, err := workload.BuildInstanceWith(cfg, workload.WithSparse(6))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCompactDualSolveMatchesReference pins the compact-plane bit-exactness
// claim: on a sparse instance the workspace takes the active-coordinate
// path (act != nil) and must land on byte-identical plans and objectives
// as the dense reference solver.
func TestCompactDualSolveMatchesReference(t *testing.T) {
	in := sparseInstance(t)
	ws := NewWorkspace()
	ws.Bind(in)
	compact := 0
	for i := range ws.slots {
		if ws.slots[i].act != nil {
			compact++
		}
	}
	if compact == 0 {
		t.Fatal("no slot took the compact path — the instance is not sparse enough to test it")
	}

	rng := rand.New(rand.NewPCG(41, 42))
	opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
	mu := randomMu(rng, in, 2.0)
	wantPlans, wantTotal := referenceSolveAll(t, in, mu, nil, opts)
	gotTotal, err := ws.SolveDual(context.Background(), mu, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotPlans := ws.ExportPlans()
	if gotTotal != wantTotal || !reflect.DeepEqual(gotPlans, wantPlans) {
		t.Fatal("compact dual solve diverges from the dense reference")
	}

	// Warm restart (the primal-dual steady state) must stay bit-exact too.
	mu2 := randomMu(rng, in, 2.0)
	wantPlans2, wantTotal2 := referenceSolveAll(t, in, mu2, wantPlans, opts)
	gotTotal2, err := ws.SolveDual(context.Background(), mu2, opts)
	if err != nil {
		t.Fatal(err)
	}
	gotPlans2 := ws.ExportPlans()
	if gotTotal2 != wantTotal2 || !reflect.DeepEqual(gotPlans2, wantPlans2) {
		t.Fatal("warm compact dual solve diverges from the dense reference")
	}
}

// TestCompactDualSolveZeroAllocs extends the zero-allocation guard to the
// pruned sweep: once warm, a compact per-slot dual solve must not touch
// the heap either.
func TestCompactDualSolveZeroAllocs(t *testing.T) {
	in := sparseInstance(t)
	ws := NewWorkspace()
	ws.Bind(in)
	rng := rand.New(rand.NewPCG(51, 52))
	opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
	mu := randomMu(rng, in, 2.0)
	if _, err := ws.SolveDual(context.Background(), mu, opts); err != nil {
		t.Fatal(err)
	}

	var s *slotState
	for i := range ws.slots {
		if ws.slots[i].act != nil {
			s = &ws.slots[i]
			break
		}
	}
	if s == nil {
		t.Fatal("no compact slot to measure")
	}
	muRow := mu[s.t][s.n]
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.solveDual(muRow, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state compact dual solve allocates %.0f objects/op, want 0", allocs)
	}
}
