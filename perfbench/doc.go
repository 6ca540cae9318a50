// Command perfbench is the repository benchmark. It drives the crash-safe
// streaming controller (package serve) through its public entry points
// with generated edge traffic, checks every output against an
// independent golden replay, and prints every metric by name with its
// unit. Per-layer figures come from a separate traced run on the same
// inputs.
//
// # Running
//
// From the root of a checkout (perfbench/run.sh builds the binary from
// source into .bench_build, which also holds the state dirs):
//
//	bash perfbench/run.sh --workload serve-chc --seed 1 --seconds 40 --trace 0   # end to end
//	bash perfbench/run.sh --workload serve-chc --seed 1 --seconds 40 --trace 1   # per layer
//	cd perfbench && go test .                                                     # the helpers' tests
//
// The last line of standard output is the result object (correct,
// attempted, failed, metrics); the line before it holds the run's
// metadata (nproc, GOMAXPROCS, CPU model, Go version, the state dir's
// filesystem) and sample counts, so results are compared like with like.
// The command exits non-zero on any failed operation. Runs use one
// process. The golden replays run at the default GOMAXPROCS (= nproc);
// the service then runs at GOMAXPROCS 1, so the solver's fork-join never
// waits for two vCPUs of a shared host to be scheduled together (at
// nproc = 2, CHC slot closes spread by a third between identical runs).
//
// # Workloads
//
// Both workloads are closed loop: each edge connection waits for its ack
// before sending its next batch, and a slot closes by an explicit POST
// /v1/tick once every connection's batches for it are acked, so the
// committed trajectory is a pure function of the seed. The service runs
// in-process behind real loopback HTTP, in StateDir mode (report WAL plus
// checksummed snapshot generations). The seed draws the report traces;
// the topology is fixed configuration. A timed run draws several traces
// (six on serve-chc, three on serve-ingest) and serves a whole horizon
// ("episode") over each in turn, each in a fresh state dir, until every
// trace is served once and --seconds of serving are done. Before the tick
// of slots 10, 20, … it stops the server, closes the controller and
// recovers it with serve.Open on the same dir, three times over
// (recovery only reads the dir).
//
//   - serve-chc: 2 SBSs × 8 classes, K=30, C=4, B=20, β=50, jitter 0.4,
//     paper density (≈33 reports per slot), 30 slots; CHC(w=6, r=3); one
//     connection, batches of 64. Chosen because window solves are most of
//     a slot close and ingest is one batch per slot: solver and snapshot
//     changes show here, WAL and ingest changes do not. Recovery is
//     snapshot-decode-heavy. Six short horizons rather than three long
//     ones, so a run's figures depend less on which traces its seed draws.
//   - serve-ingest: 4 SBSs × 8 classes, K=30, C=5, B=3000, density 400
//     (≈6.2k reports per slot), 60 slots; RHC(w=2); two connections
//     owning two SBSs each, batches of 16. Chosen because HTTP decode,
//     validation and WAL append dominate and the two connections share
//     the controller lock held across the append: WAL and ingest changes
//     show here and not on serve-chc. Recovery is WAL-replay-heavy.
//
// The state dir lives inside the checkout, on whatever filesystem holds
// it (ext4 on the reference VM). The WAL runs with serve.FsyncOff, which
// on a disk-backed filesystem costs what FsyncAlways costs on tmpfs: the
// append reaches the page cache and no further. With fsyncs on a shared
// virtual disk, ingest latency measures the disk (its p99 swung from 0.8
// to 3.3 ms between identical runs) rather than the service. Close
// markers and generations are still fsynced on every tick.
//
// # End-to-end metrics (--trace 0, untraced, over HTTP)
//
//	setup_s            time to a usable service: topology, trace, genesis serve.Open
//	                   (start-up window solves, generation 0) and listen; median of
//	                   ten stand-alone set-ups before each episode and its own
//	slot_close_mean_ms POST /v1/tick round trip (commit, WAL close marker, generation
//	                   publish, next plan), mean over every close in the run. A mean,
//	                   not a median: CHC's window solves fall in two groups of about
//	                   equal size, so the median sits in the gap between them and
//	                   moved by a tenth between runs of the same inputs
//	slot_close_p90_ms  p90 of every close in the run, pooled (≥ 180 closes)
//	ingest_p50_us      POST /v1/requests round trip, the ack; median of every ingest
//	reports_per_s      acked reports ÷ serving wall time without the restarts
//	recover_p50_ms     serve.Open on the live state dir until the server listens;
//	                   median of every recovery in the run
//	committed_cost     paper objective Σ f+g+h of the committed trajectory
//	                   (Instance.TotalCost), mean over the run's traces; exact
//	peak_rss_mib       process peak RSS (obs.PeakRSSBytes)
//
// Every figure pools the samples of all the run's episodes; the metadata
// line also gives each episode's own figures and the deciles of the
// slot-close latency.
//
// The ingest tail is reported on the metadata line only, at the highest
// of p90/p99 with at least ten samples beyond it (p99 on serve-ingest, p90
// on serve-chc) together with the sample count. Failed operations are
// counted in the result's failed field: a non-2xx reply, an ack for the
// wrong slot, a lost or doubled acked report after a restart, a served
// trajectory that is not byte-equal to the golden online.Run replay over
// trace.EmpiricalDemand with a fresh estimator (the jocserve -smoke
// check), and any audit.Trajectory violation of the golden trajectory.
//
// # Per-layer metrics (--trace 1)
//
// The traced run serves one trace three times: over HTTP untraced,
// in process untraced, and in process with the benchmark's own spans
// (ingest, tick, snapshot, open) around its calls and an obs.Tracer in
// the context it passes to Controller.Tick and serve.Open, which yields
// the program's window_solve → solve → dual_batch → caching/loadbalance/
// recover spans as children. Counters and timers are deltas of
// obs.Default over the traced replay. Each layer metric should move the
// named end-to-end metric and stay flat where the layer is bypassed:
//
//	serve HTTP       serve.http.ingest_overhead_us (HTTP ingest p50 − Controller.Ingest p50)
//	                 → ingest_p50_us on serve-ingest
//	serve ingest/WAL serve.ingest.p50_us, serve.ingest.busy_share, serve.wal.appends,
//	                 serve.wal.bytes_per_report → ingest_p50_us, reports_per_s on
//	                 serve-ingest; flat on serve-chc
//	serve tick       serve.tick.p50_ms, serve.tick.self_share (Tick less its window
//	                 solves) → slot_close_* on both
//	serve snapshot   serve.snapshot.publish_p50_ms (Controller.Snapshot + SaveSnapshot
//	                 to a side path after each tick), serve.snapshot.bytes
//	                 → slot_close_mean_ms, recover_p50_ms on serve-chc
//	serve recovery   serve.recover.open_p50_ms, serve.wal.replayed → recover_p50_ms
//	online           online.window_solves, online.dual_iterations,
//	                 online.window_solve.p50_ms, online.window_solve.busy_share (÷ Σ Tick)
//	                 → slot_close_* on serve-chc
//	core             core.iterations_per_solve, core.converged_share,
//	                 core.p1.busy_ms, core.p2.busy_ms, core.recover.busy_ms
//	                 → slot_close_* on serve-chc
//	caching/mcflow   caching.p1_flow_solves, caching.p1_flow.busy_ms, caching.p1_sbs_skips,
//	                 caching.p1_resolve_kept_share → slot_close_* on serve-chc
//	loadbalance      loadbalance.p2_solves, loadbalance.p2_gradient_steps,
//	                 loadbalance.p2.busy_ms, loadbalance.p2_slot_skip_share,
//	                 loadbalance.p2_parallelism (Σ per-slot P2 ÷ core.p2_solve; about
//	                 1 while the service runs at GOMAXPROCS 1)
//	                 → slot_close_* on serve-chc (its largest share)
//	runtime          runtime.alloc_bytes_per_op (per slot close), runtime.gc_cycles
//	                 → slot_close_*, peak_rss_mib
//	attribution      attr.unattributed_share (1 − wall covered by spans ÷ wall),
//	                 attr.trace_overhead_share (traced ÷ untraced wall − 1), and
//	                 attr.<span>.self_ms, each span's duration less its children's
package main
