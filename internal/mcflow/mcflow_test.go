package mcflow

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"edgecache/internal/lp"
)

func TestSingleArc(t *testing.T) {
	g := NewGraph(2)
	a := g.AddArc(0, 1, 3, 2.5)
	res, err := g.Solve(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 3 || math.Abs(res.Cost-7.5) > 1e-12 {
		t.Fatalf("got flow %d cost %g, want 3, 7.5", res.Flow, res.Cost)
	}
	if g.Flow(a) != 3 {
		t.Fatalf("arc flow = %d, want 3", g.Flow(a))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 0→1 paths via 2 and 3: costs 5 and 1, capacities 1 each.
	g := NewGraph(4)
	exp := g.AddArc(0, 2, 1, 4)
	g.AddArc(2, 1, 1, 1)
	cheap := g.AddArc(0, 3, 1, 0.5)
	g.AddArc(3, 1, 1, 0.5)
	res, err := g.Solve(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-1) > 1e-12 {
		t.Fatalf("cost = %g, want 1", res.Cost)
	}
	if g.Flow(cheap) != 1 || g.Flow(exp) != 0 {
		t.Fatalf("flows: cheap %d, expensive %d", g.Flow(cheap), g.Flow(exp))
	}
	// Second unit must take the expensive path.
	res2, err := g.Solve(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Cost-5) > 1e-12 {
		t.Fatalf("second unit cost = %g, want 5", res2.Cost)
	}
}

func TestNegativeCosts(t *testing.T) {
	// A reward arc: routing through it is cheaper than the direct path.
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 2)
	g.AddArc(2, 1, 1, -5)
	res, err := g.Solve(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-(-3)) > 1e-12 {
		t.Fatalf("cost = %g, want -3", res.Cost)
	}
}

func TestReroutingThroughResidual(t *testing.T) {
	// Classic example where the second augmentation must undo part of the
	// first via a residual arc.
	//   0→1 (cap 1, cost 1), 0→2 (cap 1, cost 10)
	//   1→2 (cap 1, cost 1), 1→3 (cap 1, cost 10), 2→3 (cap 2, cost 1)
	// One unit: 0→1→2→3 cost 3. Two units: 0→1→3 + 0→2→3 = 11+11... or
	// 0→1→2→3 + 0→2... cap(2→3)=2 so 0→2→3 cost 11 → total 14 vs
	// 0→1→3 (12) + 0→2→3 (11) = 23. Optimum keeps the first path: 14.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 10)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(1, 3, 1, 10)
	g.AddArc(2, 3, 2, 1)
	res, err := g.Solve(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-14) > 1e-12 {
		t.Fatalf("cost = %g, want 14", res.Cost)
	}
}

func TestInfeasible(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 1, 1)
	if _, err := g.Solve(0, 1, 2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestZeroSupply(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 1, 1)
	res, err := g.Solve(0, 1, 0)
	if err != nil || res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("got (%v, %v), want zero result", res, err)
	}
}

func TestBadArguments(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 1, 1)
	if _, err := g.Solve(-1, 1, 1); err == nil {
		t.Fatal("accepted negative source")
	}
	if _, err := g.Solve(0, 5, 1); err == nil {
		t.Fatal("accepted out-of-range sink")
	}
	if _, err := g.Solve(0, 1, -1); err == nil {
		t.Fatal("accepted negative supply")
	}
}

func TestAddArcPanics(t *testing.T) {
	g := NewGraph(2)
	for name, fn := range map[string]func(){
		"bad node": func() { g.AddArc(0, 9, 1, 0) },
		"negative": func() { g.AddArc(0, 1, -1, 0) },
		"nan cost": func() { g.AddArc(0, 1, 1, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddArc did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCyclicGraphUsesBellmanFord(t *testing.T) {
	// A cycle 1→2→1 with non-negative total cost plus a path 0→1→3.
	g := NewGraph(4)
	g.AddArc(0, 1, 2, 1)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(2, 1, 1, 1)
	g.AddArc(1, 3, 2, 1)
	res, err := g.Solve(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-4) > 1e-12 {
		t.Fatalf("cost = %g, want 4", res.Cost)
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 1, -3)
	g.AddArc(2, 1, 1, 1)
	if _, err := g.Solve(0, 1, 1); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err = %v, want ErrNegativeCycle", err)
	}
}

// randomDAG builds a layered random DAG with integer capacities and float
// costs (possibly negative), returning also the dense arc list for the LP
// cross-check.
type testArc struct {
	from, to, cap int
	cost          float64
}

func randomDAG(r *rand.Rand) (nodes int, arcs []testArc) {
	layers := 2 + r.IntN(3)   // 2..4 layers
	perLayer := 1 + r.IntN(3) // 1..3 nodes per layer
	nodes = layers*perLayer + 2
	src, snk := nodes-2, nodes-1
	id := func(l, i int) int { return l*perLayer + i }
	for i := 0; i < perLayer; i++ {
		arcs = append(arcs, testArc{src, id(0, i), 1 + r.IntN(3), 0})
		arcs = append(arcs, testArc{id(layers-1, i), snk, 1 + r.IntN(3), 0})
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < perLayer; i++ {
			for j := 0; j < perLayer; j++ {
				if r.Float64() < 0.8 {
					arcs = append(arcs, testArc{
						id(l, i), id(l+1, j),
						1 + r.IntN(3),
						math.Round((r.Float64()*8-2)*4) / 4, // −2..6, quarter steps
					})
				}
			}
		}
	}
	return nodes, arcs
}

// lpMinCostFlow solves the same flow problem as an LP: variables are arc
// flows, conservation as equalities, capacities as ≤ rows.
func lpMinCostFlow(nodes int, arcs []testArc, src, snk, supply int) (float64, error) {
	n := len(arcs)
	p := lp.NewProblem(n)
	for j, a := range arcs {
		p.C[j] = a.cost
		row := make([]float64, n)
		row[j] = 1
		p.AddConstraint(row, lp.LE, float64(a.cap))
	}
	for v := 0; v < nodes; v++ {
		row := make([]float64, n)
		for j, a := range arcs {
			if a.from == v {
				row[j] += 1
			}
			if a.to == v {
				row[j] -= 1
			}
		}
		rhs := 0.0
		switch v {
		case src:
			rhs = float64(supply)
		case snk:
			rhs = -float64(supply)
		}
		p.AddConstraint(row, lp.EQ, rhs)
	}
	sol, err := p.Solve(lp.Options{})
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// TestRandomAgainstLP cross-checks successive shortest paths against the LP
// formulation on random DAGs, including flow-conservation verification.
func TestRandomAgainstLP(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		nodes, arcs := randomDAG(rng)
		src, snk := nodes-2, nodes-1

		// Find max feasible supply first (cost-free probe on a copy).
		probe := NewGraph(nodes)
		for _, a := range arcs {
			probe.AddArc(a.from, a.to, a.cap, 0)
		}
		maxFlow := 0
		for {
			if _, err := probe.Solve(src, snk, 1); err != nil {
				break
			}
			maxFlow++
		}
		if maxFlow == 0 {
			continue
		}
		supply := 1 + rng.IntN(maxFlow)

		g := NewGraph(nodes)
		ids := make([]Arc, len(arcs))
		for i, a := range arcs {
			ids[i] = g.AddArc(a.from, a.to, a.cap, a.cost)
		}
		res, err := g.Solve(src, snk, supply)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}

		want, err := lpMinCostFlow(nodes, arcs, src, snk, supply)
		if err != nil {
			t.Fatalf("trial %d: LP: %v", trial, err)
		}
		if math.Abs(res.Cost-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: flow cost %g, LP cost %g", trial, res.Cost, want)
		}

		// Conservation at internal nodes and cost consistency.
		net := make([]int, nodes)
		var cost float64
		for i, a := range arcs {
			f := g.Flow(ids[i])
			if f < 0 || f > a.cap {
				t.Fatalf("trial %d: arc %d flow %d outside [0, %d]", trial, i, f, a.cap)
			}
			net[a.from] += f
			net[a.to] -= f
			cost += float64(f) * a.cost
		}
		for v := 0; v < nodes; v++ {
			want := 0
			if v == src {
				want = supply
			} else if v == snk {
				want = -supply
			}
			if net[v] != want {
				t.Fatalf("trial %d: conservation violated at node %d: %d", trial, v, net[v])
			}
		}
		if math.Abs(cost-res.Cost) > 1e-9 {
			t.Fatalf("trial %d: per-arc cost %g != reported %g", trial, cost, res.Cost)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d random trials had positive max flow; generator too sparse", checked)
	}
}

// TestResolveMatchesFresh checks that re-solving a reused graph across
// rounds of cost updates — tiny perturbations of 1–3 arcs (the shape of a
// late dual iteration) and full re-randomisations — routes exactly the
// same per-arc flows at the same cost as a freshly built graph. SetCost
// runs while the graph still holds the previous round's flow, in the order
// caching.Workspace.SolveAll uses: SetCost, Reset, Solve.
func TestResolveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	const nodes = 12
	type edge struct{ from, to, cap int }
	var edges []edge
	for u := 0; u < nodes-1; u++ {
		edges = append(edges, edge{u, u + 1, 2 + rng.IntN(3)})
		for extra := 0; extra < 2; extra++ {
			v := u + 1 + rng.IntN(nodes-u-1)
			edges = append(edges, edge{u, v, 1 + rng.IntN(2)})
		}
	}
	costs := make([]float64, len(edges))
	for i := range costs {
		costs[i] = rng.Float64()*10 - 5
	}

	reused := NewGraph(nodes)
	reusedIDs := make([]Arc, len(edges))
	for i, e := range edges {
		reusedIDs[i] = reused.AddArc(e.from, e.to, e.cap, costs[i])
	}
	solved := 0
	for round := 0; round < 40; round++ {
		if round > 0 {
			if round%3 == 0 {
				// Full retarget: every cost changes.
				for i := range costs {
					costs[i] = rng.Float64()*10 - 5
				}
			} else {
				// Delta retarget: perturb a few arcs slightly.
				for j := 0; j < 1+rng.IntN(3); j++ {
					i := rng.IntN(len(costs))
					costs[i] += (rng.Float64() - 0.5) * 0.2
				}
			}
			for i := range edges {
				reused.SetCost(reusedIDs[i], costs[i])
			}
		}
		fresh := NewGraph(nodes)
		freshIDs := make([]Arc, len(edges))
		for i, e := range edges {
			freshIDs[i] = fresh.AddArc(e.from, e.to, e.cap, costs[i])
		}
		reused.Reset()
		want, errW := fresh.Solve(0, nodes-1, 2)
		got, errG := reused.Solve(0, nodes-1, 2)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("round %d: fresh err %v, reused err %v", round, errW, errG)
		}
		if errW != nil {
			continue
		}
		if got != want {
			t.Fatalf("round %d: reused (cost %v, flow %d) != fresh (cost %v, flow %d)",
				round, got.Cost, got.Flow, want.Cost, want.Flow)
		}
		for i := range edges {
			if reused.Flow(reusedIDs[i]) != fresh.Flow(freshIDs[i]) {
				t.Fatalf("round %d arc %d: reused flow %d != fresh flow %d",
					round, i, reused.Flow(reusedIDs[i]), fresh.Flow(freshIDs[i]))
			}
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no round was feasible; the generator never exercised re-solving")
	}
}

// TestResetSetCostMatchesFresh checks the graph-reuse contract behind the
// caching workspace: after Reset (and optional SetCost updates) a solved
// graph must behave exactly like a freshly built one — same cost, same flow
// on every arc — across repeated rounds.
func TestResetSetCostMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	const nodes = 12
	type edge struct{ from, to, cap int }
	var edges []edge
	// Layered DAG (arcs go low → high index) so negative costs are safe.
	for u := 0; u < nodes-1; u++ {
		edges = append(edges, edge{u, u + 1, 2 + rng.IntN(3)})
		for extra := 0; extra < 2; extra++ {
			v := u + 1 + rng.IntN(nodes-u-1)
			edges = append(edges, edge{u, v, 1 + rng.IntN(2)})
		}
	}
	costs := make([]float64, len(edges))

	reused := NewGraph(nodes)
	reusedIDs := make([]Arc, len(edges))
	for i, e := range edges {
		reusedIDs[i] = reused.AddArc(e.from, e.to, e.cap, 0)
	}
	for round := 0; round < 6; round++ {
		for i := range costs {
			costs[i] = rng.Float64()*10 - 5
		}
		fresh := NewGraph(nodes)
		freshIDs := make([]Arc, len(edges))
		for i, e := range edges {
			freshIDs[i] = fresh.AddArc(e.from, e.to, e.cap, costs[i])
		}
		reused.Reset()
		for i := range edges {
			reused.SetCost(reusedIDs[i], costs[i])
		}
		want, errW := fresh.Solve(0, nodes-1, 2)
		got, errG := reused.Solve(0, nodes-1, 2)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("round %d: fresh err %v, reused err %v", round, errW, errG)
		}
		if errW != nil {
			continue
		}
		if got != want {
			t.Fatalf("round %d: reused (cost %v, flow %d) != fresh (cost %v, flow %d)",
				round, got.Cost, got.Flow, want.Cost, want.Flow)
		}
		for i := range edges {
			if reused.Flow(reusedIDs[i]) != fresh.Flow(freshIDs[i]) {
				t.Fatalf("round %d arc %d: reused flow %d != fresh flow %d",
					round, i, reused.Flow(reusedIDs[i]), fresh.Flow(freshIDs[i]))
			}
		}
	}
}
