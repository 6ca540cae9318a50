// Online-controller benchmarks: the three horizon controllers end to end,
// and the warm-window solve sequence that isolates the cross-window warm
// starts (μ shift, coefficient rotation, iterate carry — DESIGN.md §12).
package edgecache_test

import (
	"context"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/online"
)

func BenchmarkOnline_Controllers(b *testing.B) {
	in, pred := benchInstance(b)
	for _, cfg := range []online.Config{online.RHC(4), online.CHC(4, 2), online.AFHC(4)} {
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := online.Run(context.Background(), in, pred, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmWindows builds the sliding-window sequence a receding-horizon
// controller solves: overlapping w-slot views of one instance, each
// shifted by one slot. The windows share the instance's demand backing,
// so consecutive windows agree bitwise on their overlap — the condition
// under which the cross-window coefficient rotation engages.
func warmWindows(b *testing.B) []*model.Instance {
	b.Helper()
	in, _ := benchInstance(b)
	const w = 6
	plan := in.InitialPlan()
	var wins []*model.Instance
	for from := 0; from+w <= in.T; from++ {
		sub, err := in.Window(from, from+w, plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		wins = append(wins, sub)
	}
	return wins
}

// shiftWarmMu re-aligns the previous window's multipliers one slot left
// (the online controller's μ warm start for advance = 1): overlapping
// slots keep their values, the new tail slot starts at zero.
func shiftWarmMu(dst, mu [][][]float64, in *model.Instance) [][][]float64 {
	w := len(mu)
	if dst == nil {
		dst = make([][][]float64, w)
		for t := range dst {
			dst[t] = make([][]float64, in.N)
			for n := range dst[t] {
				dst[t][n] = make([]float64, in.Classes[n]*in.K)
			}
		}
	}
	for t := 0; t < w; t++ {
		for n := range dst[t] {
			if t+1 < w {
				copy(dst[t][n], mu[t+1][n])
			} else {
				clear(dst[t][n])
			}
		}
	}
	return dst
}

// benchWarmWindow solves the full sliding-window sequence once per
// iteration; every window solve borrows core.Solve's pooled workspace and
// rebinds it from scratch. The cold variant is the from-scratch controller
// step: every window starts with zero multipliers (nil InitialMu). The
// incremental variant times the μ shift, the only cross-window warm
// start: the previous window's multipliers are shifted onto the overlap.
// Both variants re-solve every (t, n) in every dual iteration; the warm
// start trades iterations, not correctness.
func benchWarmWindow(b *testing.B, cold bool) {
	wins := warmWindows(b)
	opts := core.Options{MaxIter: 15, StallIter: 6}
	var warm [][][]float64
	run := func() {
		for i, sub := range wins {
			o := opts
			if !cold && i > 0 {
				o.InitialMu = warm
			}
			res, err := core.Solve(context.Background(), sub, o)
			if err != nil {
				b.Fatal(err)
			}
			if !cold {
				warm = shiftWarmMu(warm, res.Mu, sub)
			}
		}
	}
	run() // populate the pool so both variants measure the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkWarmWindowSolve_Cold(b *testing.B)        { benchWarmWindow(b, true) }
func BenchmarkWarmWindowSolve_Incremental(b *testing.B) { benchWarmWindow(b, false) }
