package loadbalance

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"edgecache/internal/convex"
	"edgecache/internal/model"
)

// checkKernelSolve runs the dual solve of slot i of ws for the μ row mu
// from its current iterate twice, through the reference SlotProblem.Solve
// and through the kernel alone (kernelDual, bypassing the closed form),
// and fails unless iterate, objective and gradient-step count agree bit
// for bit. The kernel's iterate stays in the slot; name labels failures.
func checkKernelSolve(tb testing.TB, name string, ws *Workspace, i int, mu []float64, opts convex.Options) {
	tb.Helper()
	s := &ws.slots[i]
	want, wantValue, wantSteps := referenceDual(tb, ws.in, s, mu, opts)
	steps := mGradSteps.Value()
	value, err := s.kernelDual(mu, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if got := int(mGradSteps.Value() - steps); got != wantSteps {
		tb.Fatalf("%s: kernel took %d gradient steps, reference %d", name, got, wantSteps)
	}
	for j, v := range s.y {
		if math.Float64bits(v) != math.Float64bits(want[j]) {
			tb.Fatalf("%s: kernel y[%d] = %v, reference %v", name, j, v, want[j])
		}
	}
	if math.Float64bits(value) != math.Float64bits(wantValue) {
		tb.Fatalf("%s: kernel objective %v, reference %v", name, value, wantValue)
	}
}

// pricedOut returns a μ_i ≥ c·w_i: the rounded product itself (the edge
// of the pin test) or a little above it.
func pricedOut(rng *rand.Rand, c, w float64) float64 {
	if rng.IntN(2) == 0 {
		return c * w
	}
	return c * w * (1 + rng.Float64())
}

// pinRounds drives the pin certificate of the dual kernel on every slot
// of ws. Each solve draws, per coordinate with demand, one of:
//
//   - priced out with a +0 warm start (μ_i ≥ 2A·w_i): pinned;
//   - priced out with a positive warm start: must not be pinned;
//   - live: a small μ_i from any warm start.
//
// The last round instead starts every live coordinate at 1 and pulls it
// down with μ_i of order L, so the momentum carries the extrapolated load
// below 0 — past the certificate's −cu ≤ 2A — and the solve widens to
// every coordinate with demand at that step and goes on. Every solve must
// match the reference bit for bit, its gradient-step count included, and
// the counters must show that pins and widenings both happened.
func pinRounds(t *testing.T, name string, ws *Workspace, rng *rand.Rand, opts convex.Options) {
	t.Helper()
	pinned, fallbacks := mPinnedCoords.Value(), mPinFallbacks.Value()
	for i := range ws.slots {
		s := &ws.slots[i]
		for round := 0; round < 4; round++ {
			extrapolate := round == 3
			mu := make([]float64, s.dim)
			zero(s.y)
			for j, w := range s.w {
				if s.lambda[j] == 0 {
					mu[j] = 0.5 * rng.Float64()
					continue
				}
				switch draw := rng.IntN(3); {
				case draw == 0:
					mu[j] = pricedOut(rng, 2*s.a, w)
				case extrapolate:
					mu[j] = 2*s.a*w + s.lip*(0.2+0.2*rng.Float64())
					s.y[j] = 1
				case draw == 1:
					mu[j] = pricedOut(rng, 2*s.a, w)
					s.y[j] = rng.Float64()
				default:
					mu[j] = 0.5 * rng.Float64()
					if rng.IntN(2) == 0 {
						s.y[j] = rng.Float64()
					}
				}
			}
			checkKernelSolve(t, fmt.Sprintf("%s slot %d pin round %d", name, i, round), ws, i, mu, opts)
		}
	}
	if mPinnedCoords.Value() == pinned {
		t.Fatalf("%s: no coordinate was pinned", name)
	}
	if mPinFallbacks.Value() == fallbacks {
		t.Fatalf("%s: no solve widened to every coordinate with demand", name)
	}
}

// FuzzDualKernel checks the dual kernel against the reference
// SlotProblem.Solve bit for bit on a random small plane — some
// coordinates without demand, ŵ zero or not — with μ drawn at the given
// scale (some entries exactly at the pin edge 2A·w_i), a warm start with
// exact zeros at the given share and the given bandwidth, over two
// warm-started solves. On a plane with ŵ ≡ 0 each round then runs the
// slot's own dual solve, the closed form or its fallback, through
// checkExactSolve; the next round's kernel solve warm-starts from its
// point. A μ row with a negative or non-finite entry must be rejected
// instead. Run with
// `go test -fuzz FuzzDualKernel ./internal/loadbalance`.
func FuzzDualKernel(f *testing.F) {
	f.Add(uint64(1), 2.0, 0.5, 5.0)
	f.Add(uint64(7), 50.0, 0.9, 0.5)
	f.Add(uint64(42), 0.1, 0.2, 100.0)
	f.Add(uint64(3), -1.0, 0.5, 5.0)
	f.Fuzz(func(t *testing.T, seed uint64, muScale, zeroShare, bandwidth float64) {
		if math.Abs(muScale) > 1e6 && !math.IsInf(muScale, 0) ||
			math.IsNaN(bandwidth) || bandwidth < 0 || bandwidth > 1e6 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 3))
		m, k := 1+rng.IntN(3), 1+rng.IntN(8)
		in := &model.Instance{
			N: 1, K: k, T: 1,
			Classes:   []int{m},
			CacheCap:  []int{k},
			Bandwidth: []float64{bandwidth},
			OmegaBS:   [][]float64{make([]float64, m)},
			OmegaSBS:  [][]float64{make([]float64, m)},
			Beta:      []float64{1},
		}
		sbs := rng.IntN(2) == 0
		for c := 0; c < m; c++ {
			in.OmegaBS[0][c] = rng.Float64()
			if sbs {
				in.OmegaSBS[0][c] = 0.3 * rng.Float64()
			}
		}
		demand := model.NewDemand(1, in.Classes, k)
		for c := 0; c < m; c++ {
			for j := 0; j < k; j++ {
				if rng.Float64() < 0.8 {
					demand.Set(0, 0, c, j, 3*rng.Float64())
				}
			}
		}
		in.Demand = demand
		if err := in.Validate(); err != nil {
			t.Skip()
		}
		ws := NewWorkspace()
		ws.Bind(in)
		s := &ws.slots[0]
		for j, lam := range s.lambda {
			if lam != 0 && rng.Float64() >= zeroShare {
				s.y[j] = rng.Float64()
			}
		}
		opts := convex.Options{StepTol: 1e-7, MaxIter: 300}
		for round := 0; round < 2; round++ {
			mu := make([]float64, s.dim)
			valid := true
			for j := range mu {
				if rng.IntN(4) == 0 {
					mu[j] = 2 * s.a * s.w[j]
				} else {
					mu[j] = muScale * rng.Float64()
				}
				valid = valid && mu[j] >= 0 && !math.IsInf(mu[j], 1)
			}
			if !valid {
				y := append([]float64(nil), s.y...)
				if _, err := ws.SolveDual(context.Background(), [][][]float64{{mu}}, opts); err == nil {
					t.Fatalf("round %d: μ %v accepted", round, mu)
				}
				for j, v := range y {
					if math.Float64bits(s.y[j]) != math.Float64bits(v) {
						t.Fatalf("round %d: rejected solve moved y[%d] from %v to %v", round, j, v, s.y[j])
					}
				}
				continue
			}
			checkKernelSolve(t, fmt.Sprintf("round %d", round), ws, 0, mu, opts)
			if s.whZero {
				checkExactSolve(t, fmt.Sprintf("round %d closed form", round), ws, 0, mu, opts)
			}
		}
	})
}
