// Benchmarks: one per paper table/figure (regenerating its series at the
// Quick experiment scale) plus the cross-cutting ablation benches from
// DESIGN.md §4 (rounding threshold, subgradient step schedule), the
// offline-solver benches and the sparse/web-scale suite. Kernel-specific
// benchmarks live in per-kernel files alongside this one:
//
//	bench_mcflow_test.go       min-cost flow: SSP solve, reused-graph re-solve
//	bench_caching_test.go      P1: flow vs simplex, dirty-row dual sweep
//	bench_loadbalance_test.go  P2: FISTA vs PGD, projection, dual sweep
//	bench_online_test.go       controllers, warm-window incremental solve
//
// The figure benches exist so `go test -bench=.` demonstrably exercises
// every experiment end to end; the full-scale numbers live in
// EXPERIMENTS.md and come from `go run ./cmd/experiments`.
package edgecache_test

import (
	"context"
	"io"
	"testing"

	"edgecache/internal/baseline"
	"edgecache/internal/core"
	"edgecache/internal/experiments"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

// --- figure/table benches (E1–E5 of DESIGN.md §4) --------------------------

func BenchmarkFig2_BetaSweep(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(context.Background(), []float64{0, 20, 60}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_WindowSweep(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3(context.Background(), []int{2, 4, 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_BandwidthSweep(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4(context.Background(), []float64{3, 5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_NoiseSweep(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(context.Background(), []float64{0, 0.2, 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline_CostRatios(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.Headline(context.Background(), 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches -------------------------------------------------------

func BenchmarkRounding_RhoSweep(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.RhoSweep(context.Background(), []float64{0.25, 0.382, 0.6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDual_StepSchedule(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.T = 8
	cfg.K = 10
	cfg.ClassesPerSBS = 8
	cfg.CacheCap = 3
	cfg.Bandwidth = 8
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{0.02, 0.05, 0.2} {
		b.Run(stepName(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), in, core.Options{MaxIter: 20, StallIter: -1, StepAlpha: alpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func stepName(alpha float64) string {
	switch alpha {
	case 0.02:
		return "alpha=0.02"
	case 0.05:
		return "alpha=0.05"
	default:
		return "alpha=0.20"
	}
}

func BenchmarkCHC_Commitment(b *testing.B) {
	s := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := s.CommitmentSweep(context.Background(), []int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- solver/controller benches ----------------------------------------------

func benchInstance(b *testing.B) (*model.Instance, *workload.Predictor) {
	b.Helper()
	cfg := workload.PaperDefault()
	cfg.T = 10
	cfg.K = 12
	cfg.ClassesPerSBS = 8
	cfg.CacheCap = 3
	cfg.Bandwidth = 8
	cfg.Beta = 20
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pred, err := workload.NewPredictor(in.Demand, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return in, pred
}

func BenchmarkOffline_PrimalDual(b *testing.B) {
	in, _ := benchInstance(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(context.Background(), in, core.Options{MaxIter: 15, StallIter: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve_Instrumented measures the cost of the telemetry layer on
// the offline solver: "disabled" is the default nil-handle path (the one
// every production solve takes unless -trace is passed) and must stay
// within noise of BenchmarkOffline_PrimalDual; "enabled" streams every
// solver_iteration event through the JSONL sink to io.Discard and bounds
// the worst-case tracing cost.
func BenchmarkSolve_Instrumented(b *testing.B) {
	in, _ := benchInstance(b)
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(context.Background(), in, core.Options{MaxIter: 15, StallIter: 6}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		sink := obs.NewJSONL(io.Discard)
		tel := obs.New(sink, nil)
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(context.Background(), in, core.Options{MaxIter: 15, StallIter: 6, Telemetry: tel}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- substrate micro-benches -------------------------------------------------

func BenchmarkTrace_GenerateAndReplay(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.T = 20
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(in.Demand, uint64(i))
		if _, err := trace.Replay(tr, 0, trace.NewLRU()(in.CacheCap[0])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseline_LRFUPlan(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.T = 20
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pol := baseline.NewLRFU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Plan(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sparse / web-scale benches (DESIGN.md §11) ------------------------------

// reportPeakRSS attaches the process peak RSS to a benchmark via
// b.ReportMetric; cmd/bench records the pair in the suite's extra map.
// The value is a process-wide high-water mark (earlier benchmarks in
// the same run contribute), so it is an upper bound — meaningful here
// because the sparse-scale suite is by far the largest allocator in
// the binary.
func reportPeakRSS(b *testing.B) {
	b.Helper()
	if rss, _ := obs.PeakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<20), "peak-RSS-MiB")
	}
}

// BenchmarkSparseScale_Generate builds the full web-scale instance from
// the README walkthrough — 1000 SBSs, a 10^6-item catalogue, 24 slots,
// ≤64 active contents per cell per slot — on the sparse demand backing.
// The dense tensor for this instance would be ~1.5 TiB; the sparse
// build must stay in the hundreds of MiB (the peak-RSS-MiB metric
// tracks it).
func BenchmarkSparseScale_Generate(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.N = 1000
	cfg.K = 1_000_000
	cfg.T = 24
	cfg.ClassesPerSBS = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := workload.BuildInstanceWith(cfg, workload.WithSparse(64))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := in.Demand.(*model.SparseDemand); !ok {
			b.Fatalf("demand backing is %T", in.Demand)
		}
	}
	reportPeakRSS(b)
}

// BenchmarkSparseScale_ShardedSolve runs the sharded per-SBS solve on a
// 50-SBS slice of the web-scale scenario at identical per-shard scale
// (10^6-item catalogue, topK 64, T 24) — each shard is exactly the work
// one SBS costs in the full N=1000 run, so ns/op here scales linearly
// to the headline scenario (`go run ./cmd/jocsim -sparse` runs it
// whole).
func BenchmarkSparseScale_ShardedSolve(b *testing.B) {
	cfg := workload.PaperDefault()
	cfg.N = 50
	cfg.K = 1_000_000
	cfg.T = 24
	cfg.ClassesPerSBS = 8
	in, err := workload.BuildInstanceWith(cfg, workload.WithSparse(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveSharded(context.Background(), in, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportPeakRSS(b)
}
