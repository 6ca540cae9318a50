package loadbalance

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/workload"
)

// tight is the reference setting the closed form is checked against.
var tight = convex.Options{StepTol: 1e-12, MaxIter: 20000}

// checkExactSolve runs the dual solve of slot i of ws under the μ row mu
// (solveDual: the closed form, or the kernel when its point breaks the
// bandwidth) and checks it. A certified solve must
//
//   - reach the reference SlotProblem.Solve at the tight setting:
//     objective ≤ reference + 1e-12·(1 + |reference|);
//   - return the objective of the point it leaves in s.y;
//   - satisfy the KKT conditions of the box problem at θ = 0 and fit the
//     bandwidth, with y = +0 where w = 0;
//   - give every coordinate of a tie group (equal μ_i/w_i) one value;
//   - be independent of the warm start: a re-solve from a scrambled
//     iterate lands on the same bits.
//
// A solve that falls back must match the reference from the same warm
// start bit for bit, as the kernel does. It returns the objective and
// whether the solve was certified.
func checkExactSolve(tb testing.TB, name string, ws *Workspace, i int, mu []float64, opts convex.Options) (float64, bool) {
	tb.Helper()
	s := &ws.slots[i]
	if !s.whZero {
		tb.Fatalf("%s: slot has ŵ ≢ 0", name)
	}
	exact, fallbacks := mExactSolves.Value(), mExactFallbacks.Value()
	y0 := append([]float64(nil), s.y...)
	want, wantValue, wantSteps := referenceDual(tb, ws.in, s, mu, opts)
	steps := mGradSteps.Value()
	value, err := s.solveDual(mu, opts)
	if err != nil {
		tb.Fatal(err)
	}
	certified := mExactSolves.Value() == exact+1
	if !certified {
		if mExactFallbacks.Value() != fallbacks+1 {
			tb.Fatalf("%s: neither certified nor fell back", name)
		}
		if got := int(mGradSteps.Value() - steps); got != wantSteps {
			tb.Fatalf("%s: fallback took %d gradient steps, reference %d", name, got, wantSteps)
		}
		for j, v := range s.y {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				tb.Fatalf("%s: fallback y[%d] = %v, reference %v (warm start %v)", name, j, v, want[j], y0[j])
			}
		}
		if math.Float64bits(value) != math.Float64bits(wantValue) {
			tb.Fatalf("%s: fallback objective %v, reference %v", name, value, wantValue)
		}
		return value, false
	}
	if got := mGradSteps.Value() - steps; got != 0 {
		tb.Fatalf("%s: certified solve added %d gradient steps", name, got)
	}

	sp := ForInstance(ws.in, s.t, s.n, mu, nil)
	_, ref, err := sp.Solve(nil, tight)
	if err != nil {
		tb.Fatal(err)
	}
	if value > ref+1e-12*(1+math.Abs(ref)) {
		tb.Fatalf("%s: closed-form objective %.17g above the reference %.17g", name, value, ref)
	}
	if at := sp.Objective(s.y); math.Abs(at-value) > 1e-12*(1+math.Abs(value)) {
		tb.Fatalf("%s: returned objective %.17g, %.17g at the returned point", name, value, at)
	}
	checkKKT(tb, name, s, mu)

	// Warm-start independence: scramble the iterate at the positions with
	// demand and solve again.
	got := append([]float64(nil), s.y...)
	rng := rand.New(rand.NewPCG(uint64(i), uint64(len(mu))))
	for j, lam := range s.lambda {
		if lam != 0 {
			s.y[j] = rng.Float64()
		}
	}
	again, ok := s.exactDual(mu)
	if !ok || math.Float64bits(again) != math.Float64bits(value) {
		tb.Fatalf("%s: re-solve from a scrambled warm start returned %v (certified %v), first %v", name, again, ok, value)
	}
	for j, v := range s.y {
		if math.Float64bits(v) != math.Float64bits(got[j]) {
			tb.Fatalf("%s: re-solve y[%d] = %v, first %v", name, j, v, got[j])
		}
	}
	return value, true
}

// checkKKT checks the point in s.y against the KKT conditions of the box
// problem with knapsack multiplier 0: with c = 2(A − w·y) and the
// gradient g_i = μ_i − c·w_i, y_i < 1 needs g_i ≥ 0 and y_i > 0 needs
// g_i ≤ 0, up to rounding. It also checks the box, the bandwidth, y = +0
// where w = 0, and one value per tie group.
func checkKKT(tb testing.TB, name string, s *slotState, mu []float64) {
	tb.Helper()
	var u, load float64
	for j, v := range s.y {
		u += s.w[j] * v
		load += s.lambda[j] * v
	}
	if load > s.bw {
		tb.Fatalf("%s: load %v above the bandwidth %v", name, load, s.bw)
	}
	c := 2 * (s.a - u)
	for j, v := range s.y {
		if !(v >= 0 && v <= 1) {
			tb.Fatalf("%s: y[%d] = %v outside the unit box", name, j, v)
		}
		if s.w[j] == 0 {
			if math.Float64bits(v) != 0 {
				tb.Fatalf("%s: y[%d] = %v where w = 0", name, j, v)
			}
			continue
		}
		g := mu[j] - c*s.w[j]
		tol := 1e-9 * (1 + mu[j] + 2*s.a*s.w[j])
		if v < 1 && g < -tol || v > 0 && g > tol {
			tb.Fatalf("%s: KKT fails at %d: y = %v, μ − c·w = %v (c = %v)", name, j, v, g, c)
		}
		for i := 0; i < j; i++ {
			if s.w[i] > 0 && mu[i]/s.w[i] == mu[j]/s.w[j] && math.Float64bits(s.y[i]) != math.Float64bits(v) {
				tb.Fatalf("%s: tied ratio %v takes y[%d] = %v and y[%d] = %v", name, mu[j]/s.w[j], i, s.y[i], j, v)
			}
		}
	}
}

// exactPlane is a one-slot, one-SBS instance for the closed-form tests:
// m classes × k contents with ŵ ≡ 0, every class weight ω_m drawn from
// (0, 1) except, with zeroOmega, class 0's, which is 0. With sparse, about
// a third of the positions carry no demand. The demand is stored dense,
// or in a model.SparseDemand with sparseStore.
func exactPlane(rng *rand.Rand, m, k int, bandwidth float64, zeroOmega, sparse, sparseStore bool) *model.Instance {
	in := &model.Instance{
		N: 1, K: k, T: 1,
		Classes:   []int{m},
		CacheCap:  []int{k},
		Bandwidth: []float64{bandwidth},
		OmegaBS:   [][]float64{make([]float64, m)},
		OmegaSBS:  [][]float64{make([]float64, m)},
		Beta:      []float64{1},
	}
	for c := range in.OmegaBS[0] {
		in.OmegaBS[0][c] = 0.05 + rng.Float64()
	}
	if zeroOmega {
		in.OmegaBS[0][0] = 0
	}
	var demand interface {
		model.DemandView
		Set(t, n, m, k int, v float64)
	} = model.NewDemand(1, in.Classes, k)
	if sparseStore {
		demand = model.NewSparseDemand(1, in.Classes, k)
	}
	for c := 0; c < m; c++ {
		for j := 0; j < k; j++ {
			if !sparse || rng.IntN(3) > 0 {
				demand.Set(0, 0, c, j, 0.1+3*rng.Float64())
			}
		}
	}
	in.Demand = demand
	return in
}

// exactMu draws a μ row for slot s of one of the shapes the closed form
// must handle: all zero; random; ratios tied on a few powers of two
// (μ_i = r·w_i exactly, so μ_i/w_i = r); or a mix of tied, zero and
// priced-out (μ_i ≥ 2A·w_i) entries. Positions without demand get a
// random μ.
func exactMu(rng *rand.Rand, s *slotState, shape int) []float64 {
	mu := make([]float64, s.dim)
	ties := []float64{0.25 * s.a, 0.5 * s.a, s.a, 1.5 * s.a}
	for j, w := range s.w {
		switch {
		case s.lambda[j] == 0:
			mu[j] = rng.Float64()
		case shape == 0:
		case shape == 1:
			mu[j] = 2 * s.a * w * rng.Float64()
		case shape == 2:
			mu[j] = math.Exp2(float64(rng.IntN(6)-3)) * w
		default:
			switch rng.IntN(4) {
			case 0:
			case 1:
				mu[j] = 2 * s.a * w * (1 + rng.Float64())
			default:
				mu[j] = ties[rng.IntN(len(ties))] * w
			}
		}
	}
	return mu
}

// fractionalTie reports whether two coordinates of slot s share one value
// strictly inside (0, 1): a tie group at the threshold.
func fractionalTie(s *slotState) bool {
	for j, v := range s.y {
		if v > 0 && v < 1 {
			for _, u := range s.y[j+1:] {
				if u == v {
					return true
				}
			}
		}
	}
	return false
}

// servedLoad is the load of slot s with y = 1 wherever w > 0: the
// closed form's point under zero μ.
func servedLoad(s *slotState) float64 {
	var load float64
	for j, w := range s.w {
		if w > 0 {
			load += s.lambda[j]
		}
	}
	return load
}

// TestExactDualMatchesReference checks the closed-form dual solve against
// the reference SlotProblem.Solve at the tight setting on random planes
// with ŵ ≡ 0: zero, random, tied and priced-out μ, classes with ω_m = 0,
// positions without demand, dense and sparse storage. A loose bandwidth
// (≥ Σλ) always certifies; one below the load of y = 1 wherever w > 0 —
// the point under zero μ — never does then, and its fallback must be the
// kernel bit for bit. A certified plane solves alike on either storage.
func TestExactDualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	opts := convex.Options{StepTol: 1e-7, MaxIter: 600}
	certified, fellBack, tiedFractions := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		m, k := 1+rng.IntN(4), 1+rng.IntN(8)
		zeroOmega, sparse := m > 1 && rng.IntN(3) == 0, rng.IntN(2) == 0
		planeSeed := rng.Uint64()
		plane := func(bandwidth float64, sparseStore bool) *model.Instance {
			return exactPlane(rand.New(rand.NewPCG(planeSeed, 1)), m, k, bandwidth, zeroOmega, sparse, sparseStore)
		}
		var total float64
		for _, v := range plane(0, false).Demand.CopySlot(nil, 0, 0) {
			total += v
		}
		for _, bw := range []struct {
			name  string
			value float64
		}{{"loose", total + 1}, {"mid", total * rng.Float64()}, {"binding", total / 4}} {
			in := plane(bw.value, false)
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			ws := NewWorkspace()
			ws.Bind(in)
			s := &ws.slots[0]
			for shape := 0; shape < 4; shape++ {
				name := fmt.Sprintf("trial %d (%d×%d, ω₀=0 %v, sparse %v) %s shape %d", trial, m, k, zeroOmega, sparse, bw.name, shape)
				mu := exactMu(rng, s, shape)
				want, ok := checkExactSolve(t, name, ws, 0, mu, opts)
				switch {
				case bw.name == "loose" && !ok:
					t.Fatalf("%s: a bandwidth ≥ Σλ did not certify", name)
				case bw.name == "binding" && shape == 0 && servedLoad(s) > s.bw && ok:
					t.Fatalf("%s: zero μ on a binding bandwidth certified", name)
				}
				if !ok {
					fellBack++
					continue
				}
				certified++
				if fractionalTie(s) {
					tiedFractions++
				}

				// The same plane in a model.SparseDemand lands on the same
				// bits from a different warm start.
				other := NewWorkspace()
				other.Bind(plane(bw.value, true))
				o := &other.slots[0]
				for j := range o.y {
					o.y[j] = rng.Float64()
				}
				value, ok := o.exactDual(mu)
				if !ok || math.Float64bits(value) != math.Float64bits(want) {
					t.Fatalf("%s: other storage returned %v (certified %v)", name, value, ok)
				}
				for j, v := range s.y {
					if math.Float64bits(o.y[j]) != math.Float64bits(v) {
						t.Fatalf("%s: other storage y[%d] = %v, %v", name, j, o.y[j], v)
					}
				}
			}
		}
	}
	if certified == 0 || fellBack == 0 || tiedFractions == 0 {
		t.Fatalf("%d certified solves (%d with a tie group at a fraction) and %d fallbacks; want all three", certified, tiedFractions, fellBack)
	}
	var prom bytes.Buffer
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"edgecache_loadbalance_p2_exact_solves_total", "edgecache_loadbalance_p2_exact_fallbacks_total"} {
		if !strings.Contains(prom.String(), "\n"+name+" ") {
			t.Fatalf("/metrics exposition lacks %s", name)
		}
	}
}

// TestExactDualSweepDeterministic checks that a full dual sweep on the
// closed form does not depend on the worker count or the warm start: the
// paper instance (ŵ ≡ 0) under random μ, solved at GOMAXPROCS 1 from +0
// and at GOMAXPROCS 2 from a scrambled iterate, lands on the same total
// and the same iterates, and certifies at least one slot.
func TestExactDualSweepDeterministic(t *testing.T) {
	in := paperInstance(t, func(c *workload.InstanceConfig) { c.Bandwidth = 30 })
	mu := randomMu(rand.New(rand.NewPCG(71, 72)), in, 2)
	opts := convex.Options{StepTol: 1e-6, MaxIter: 600}
	sweep := func(procs int, scramble bool) (*Workspace, float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ws := NewWorkspace()
		ws.Bind(in)
		if scramble {
			rng := rand.New(rand.NewPCG(73, 74))
			for i := range ws.slots {
				for j := range ws.slots[i].y {
					ws.slots[i].y[j] = rng.Float64()
				}
			}
		}
		total, err := ws.SolveDual(context.Background(), mu, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ws, total
	}
	exact := mExactSolves.Value()
	a, totalA := sweep(1, false)
	if mExactSolves.Value() == exact {
		t.Fatal("no slot took the closed form")
	}
	b, totalB := sweep(2, true)
	if math.Float64bits(totalA) != math.Float64bits(totalB) {
		t.Fatalf("total %v at GOMAXPROCS 1, %v at 2 from a scrambled warm start", totalA, totalB)
	}
	for i := range a.slots {
		for j, v := range a.slots[i].y {
			if math.Float64bits(b.slots[i].y[j]) != math.Float64bits(v) {
				t.Fatalf("slot %d y[%d] = %v at GOMAXPROCS 1, %v at 2", i, j, v, b.slots[i].y[j])
			}
		}
	}
}
