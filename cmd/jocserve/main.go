// Command jocserve runs the online controller as a streaming HTTP
// service: edge nodes POST demand reports, a wall-clock ticker closes
// one slot per period, and the current caching/load-balancing decision
// is published at /v1/plan. With -state-dir the service is crash-safe:
// acknowledged reports go through a CRC-framed fsynced WAL and slot
// closes publish checksummed snapshot generations, so kill -9 at any
// byte — including mid-write — recovers to the identical state. Without
// it the service keeps its state in memory only.
//
// Usage:
//
//	jocserve -addr localhost:8080 -state-dir /var/lib/jocserve
//	jocserve -T 60 -K 30 -sbs 4 -algo chc -w 10 -r 5 -slot 2s
//	jocserve -wal-fsync interval -snap-keep 5 -catchup fastforward:4
//	jocserve -debug-addr localhost:6060      # expvar, pprof, /metrics, /debug/solver
//	jocserve -faults "solvererr:t=2,attempts=3" -fault-seed 7
//	jocserve -smoke                          # deterministic self-test, exits PASS/FAIL
//	jocserve -chaos 20                       # kill -9 loop against a real child process
//
// Endpoints:
//
//	POST /v1/requests    {"requests":[{"sbs":0,"class":1,"content":3,"count":2}]}
//	GET  /v1/plan        published decision for the open slot
//	POST /v1/tick        close the open slot explicitly (when -slot 0)
//	GET  /v1/stats       live controller counters
//	GET  /v1/trajectory  committed decisions so far
//	GET  /v1/healthz     liveness
//	GET  /v1/readyz      readiness (503 until recovery completes)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"edgecache"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jocserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("jocserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "localhost:8080", "service listen address")
		debugAddr = fs.String("debug-addr", "", "serve expvar, pprof, /metrics and /debug/solver on this address")
		horizon   = fs.Int("T", 60, "time slots")
		catalogue = fs.Int("K", 30, "catalogue size")
		classes   = fs.Int("classes", 30, "user classes per SBS")
		sbs       = fs.Int("sbs", 1, "number of SBSs")
		cache     = fs.Int("C", 5, "cache capacity per SBS")
		bandwidth = fs.Float64("B", 30, "SBS bandwidth per slot")
		beta      = fs.Float64("beta", 100, "cache replacement cost β")
		jitter    = fs.Float64("jitter", 0.4, "demand temporal jitter (smoke trace only)")
		drift     = fs.Int("drift", 0, "popularity drift period (0 = off)")
		seed      = fs.Uint64("seed", 1, "workload seed (topology and smoke trace)")
		algo      = fs.String("algo", "chc", "controller: rhc, chc, afhc, fhc")
		window    = fs.Int("w", 10, "prediction window")
		commit    = fs.Int("r", 5, "CHC commitment level")
		slotDur   = fs.Duration("slot", 0, "wall-clock slot length (0 = advance via POST /v1/tick)")
		stateDir  = fs.String("state-dir", "", "durable state directory (report WAL + snapshot generations); full crash recovery on start")
		walFsync  = fs.String("wal-fsync", "always", "WAL fsync policy: always, interval or off")
		snapKeep  = fs.Int("snap-keep", 0, "snapshot generations to retain (0 = 3, minimum 2)")
		catchup   = fs.String("catchup", "skip", "missed-tick policy: skip, fastforward or fastforward:N")
		alpha     = fs.Float64("alpha", 0, "demand estimator EWMA weight (0 = default)")
		floor     = fs.Float64("floor", -1, "estimator decay floor (-1 = default, 0 = off)")
		faultSpec = fs.String("faults", "", `fault schedule: inline DSL like "solvererr:t=2,attempts=3; corrupt:mode=spike,magnitude=3" or a JSON file path`)
		faultSeed = fs.Uint64("fault-seed", 0, "seed for randomised fault injectors (0 = the schedule's own seed)")
		diskSpec  = fs.String("disk-faults", "", `disk fault injection: "tearwal:op=N; tearsnap:op=N; flipsnap:op=N" (chaos only)`)
		diskSeed  = fs.Uint64("disk-seed", 1, "seed for disk fault tear offsets")
		crashExit = fs.Bool("crash-exit", false, "exit(137) the moment an injected disk fault fires (chaos child mode)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file after start")
		smoke     = fs.Bool("smoke", false, "run the deterministic self-test (trace replay over HTTP, kill and restore mid-run, golden comparison) and exit")
		chaos     = fs.Int("chaos", 0, "run the kill -9 chaos harness: at least N real SIGKILLs against a child process, restart equivalence asserted; exits PASS/FAIL")
		chaosSeed = fs.Uint64("chaos-seed", 1, "chaos harness seed (kill points and fault arming)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg online.Config
	switch *algo {
	case "rhc":
		cfg = online.RHC(*window)
	case "chc":
		cfg = online.CHC(*window, min(*commit, *window))
	case "afhc":
		cfg = online.AFHC(*window)
	case "fhc":
		cfg = online.FHC(*window)
	default:
		return fmt.Errorf("unknown algorithm %q (want rhc, chc, afhc or fhc)", *algo)
	}
	var sched *fault.Schedule
	var err error
	if *faultSpec != "" {
		sched, err = fault.FromSpec(*faultSpec, *faultSeed)
		if err != nil {
			return err
		}
	}
	cfg.Faults = sched

	scn := edgecache.NewScenario(*sbs, *catalogue, *classes, *horizon).
		WithCache(*cache).
		WithBandwidth(*bandwidth).
		WithBeta(*beta).
		WithJitter(*jitter).
		WithDrift(*drift).
		WithSeed(*seed)
	base, _, err := scn.Build()
	if err != nil {
		return err
	}
	// Topology faults (outages, bandwidth, capacity) reshape the instance;
	// corruption and solver faults ride in the online config.
	eff, err := serve.MaterializeFaults(base, sched)
	if err != nil {
		return err
	}
	fsyncPol, err := serve.ParseFsyncPolicy(*walFsync)
	if err != nil {
		return err
	}
	cuPol, cuBound, err := serve.ParseCatchUpPolicy(*catchup)
	if err != nil {
		return err
	}
	var disks *fault.DiskFaults
	if *diskSpec != "" {
		disks, err = fault.ParseDisk(*diskSpec, *diskSeed)
		if err != nil {
			return err
		}
		if *crashExit {
			// Chaos child mode: a mid-write fault is a real process death,
			// not a returned error — the parent observes kill -9 semantics.
			disks.OnCrash = func() { os.Exit(137) }
		}
	}
	scfg := serve.Config{
		Online:         cfg,
		EstimatorAlpha: *alpha,
		EstimatorFloor: *floor,
		StateDir:       *stateDir,
		WALFsync:       fsyncPol,
		SnapKeep:       *snapKeep,
		DiskFaults:     disks,
	}

	if *smoke {
		return runSmoke(ctx, out, eff, scfg, *seed)
	}
	if *chaos > 0 {
		childArgs := []string{
			"-T", fmt.Sprint(*horizon), "-K", fmt.Sprint(*catalogue),
			"-classes", fmt.Sprint(*classes), "-sbs", fmt.Sprint(*sbs),
			"-C", fmt.Sprint(*cache), "-B", fmt.Sprint(*bandwidth),
			"-beta", fmt.Sprint(*beta), "-jitter", fmt.Sprint(*jitter),
			"-drift", fmt.Sprint(*drift), "-seed", fmt.Sprint(*seed),
			"-algo", *algo, "-w", fmt.Sprint(*window), "-r", fmt.Sprint(*commit),
			"-alpha", fmt.Sprint(*alpha), "-floor", fmt.Sprint(*floor),
			"-wal-fsync", "always", "-crash-exit",
		}
		if *faultSpec != "" {
			childArgs = append(childArgs, "-faults", *faultSpec, "-fault-seed", fmt.Sprint(*faultSeed))
		}
		return runChaos(ctx, out, eff, scfg, *seed, *chaos, *chaosSeed, childArgs)
	}

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		// Feed the flight recorder so /debug/solver shows the live
		// controller's recent window solves and dual iterations.
		scfg.Online.Telemetry = obs.New(obs.Flight, nil)
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/, /debug/vars, /metrics, /debug/solver\n", dbg.Addr())
	}

	// The listener comes up immediately; recovery (snapshot verification
	// and WAL replay) runs behind it. /v1/readyz reports 503 until the
	// controller lands, so a load balancer holds traffic off during replay.
	srv, err := serve.NewServer(serve.ServerConfig{
		Boot: func(bctx context.Context) (*serve.Controller, error) {
			return serve.Open(bctx, eff, scfg)
		},
		SlotDuration: *slotDur,
		CatchUp:      cuPol,
		CatchUpBound: cuBound,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			return err
		}
	}
	var ctrl *serve.Controller
	for ctrl = srv.Controller(); ctrl == nil; ctrl = srv.Controller() {
		if err := srv.BootErr(); err != nil {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
			return err
		}
		select {
		case <-ctx.Done():
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return srv.Shutdown(shutdownCtx)
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := ctrl.Stats()
	fmt.Fprintf(out, "jocserve: %s on http://%s, slot %d/%d", cfg.Name(), srv.Addr(), st.Slot, st.Horizon)
	if *slotDur > 0 {
		fmt.Fprintf(out, ", ticking every %s", *slotDur)
	}
	if *stateDir != "" {
		fmt.Fprintf(out, ", durable state in %s", *stateDir)
	}
	fmt.Fprintln(out)

	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintf(out, "jocserve: stopped at slot %d/%d\n", ctrl.Stats().Slot, ctrl.Stats().Horizon)
	return nil
}

// goldenTrajectory is the reference every self-test compares against: a
// batch replay of the same controller over the trace's empirical tensor
// with a fresh estimator — what an unkilled, un-served controller would
// have committed. Returned wire-encoded so both sides share the JSON
// encoding.
func goldenTrajectory(ctx context.Context, eff *model.Instance, scfg serve.Config, tr *trace.Trace) ([]byte, error) {
	goldenIn := *eff
	goldenIn.Demand = tr.EmpiricalDemand()
	est, err := workload.NewOnlineEstimator(goldenIn.Demand, scfg.EstimatorAlpha, scfg.EstimatorFloor)
	if err != nil {
		return nil, err
	}
	pred := workload.Corrupt(est, scfg.Online.Faults.Corruptor(goldenIn.Demand))
	golden, err := online.Run(ctx, &goldenIn, pred, scfg.Online)
	if err != nil {
		return nil, err
	}
	return json.Marshal(golden.Trajectory)
}

// smokeClient drives one jocserve instance over real HTTP.
type smokeClient struct {
	base string
	hc   *http.Client
}

func (c *smokeClient) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *smokeClient) post(path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runSmoke is the -smoke self-test: replay a deterministic request trace
// against a live service over real HTTP — ticker on a mock clock — stop
// the service at mid-horizon, restore it from its state dir (WAL replay
// over the newest snapshot generation), and compare the final committed
// trajectory against a golden batch replay over the same empirical
// demand. Without -state-dir the state lives in a temporary directory
// removed on return. Exits non-zero on any divergence.
func runSmoke(ctx context.Context, out io.Writer, eff *model.Instance, scfg serve.Config, seed uint64) error {
	if scfg.StateDir == "" {
		dir, err := os.MkdirTemp("", "jocserve-smoke-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		scfg.StateDir = dir
	}
	tr := trace.Generate(eff.Demand, seed)
	fmt.Fprintf(out, "smoke: %s over T=%d N=%d K=%d, %d requests, state dir %s\n",
		scfg.Online.Name(), eff.T, eff.N, eff.K, tr.Len(), scfg.StateDir)

	const period = time.Second // mock time; never actually elapses
	boot := func() (*serve.Controller, *serve.Server, *serve.MockClock, *smokeClient, error) {
		ctrl, err := serve.Open(ctx, eff, scfg)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		clock := serve.NewMockClock(time.Unix(0, 0))
		srv, err := serve.NewServer(serve.ServerConfig{Controller: ctrl, Clock: clock, SlotDuration: period})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if err := srv.Start("localhost:0"); err != nil {
			return nil, nil, nil, nil, err
		}
		cl := &smokeClient{base: "http://" + srv.Addr(), hc: &http.Client{Timeout: 30 * time.Second}}
		return ctrl, srv, clock, cl, nil
	}
	shutdown := func(srv *serve.Server, ctrl *serve.Controller) error {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(srv.Shutdown(sctx), ctrl.Close())
	}

	ctrl, srv, clock, cl, err := boot()
	if err != nil {
		return err
	}
	// book feeds a slot's trace over HTTP; tick advances the mock clock
	// one period and waits for the ticker goroutine to close the slot.
	book := func(slot int) error {
		var batch []serve.Request
		for n := 0; n < tr.N(); n++ {
			for _, r := range tr.Slot(slot, n) {
				batch = append(batch, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
		}
		var plan serve.Plan
		if err := cl.get("/v1/plan", &plan); err != nil {
			return err
		}
		if plan.Slot != slot {
			return fmt.Errorf("slot %d: service publishes plan for slot %d", slot, plan.Slot)
		}
		var ack serve.IngestResponse
		if err := cl.post("/v1/requests", serve.IngestRequest{Requests: batch}, &ack); err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
		if ack.Slot != slot || ack.Accepted != len(batch) {
			return fmt.Errorf("slot %d: ingest ack %+v for %d requests", slot, ack, len(batch))
		}
		return nil
	}
	tick := func(slot int) error {
		clock.Advance(period)
		deadline := time.Now().Add(60 * time.Second)
		for {
			var st serve.Stats
			if err := cl.get("/v1/stats", &st); err != nil {
				return err
			}
			if st.Slot > slot || st.Done {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("slot %d: ticker never closed the slot", slot)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	killAt := eff.T / 2
	for slot := 0; slot < killAt; slot++ {
		if err := book(slot); err != nil {
			return err
		}
		if err := tick(slot); err != nil {
			return err
		}
	}
	// The kill slot's reports are booked before the kill, so they exist
	// only in the WAL past the newest generation: the restore must replay
	// them.
	if err := book(killAt); err != nil {
		return err
	}
	acked := ctrl.Stats().Ingested

	// Kill: shut the service down, close the controller, and bring a fresh
	// process-equivalent up from the state dir.
	if err := shutdown(srv, ctrl); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: killed at slot %d, restoring from state dir\n", killAt)
	ctrl, srv, clock, cl, err = boot()
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if st := ctrl.Stats(); st.Slot != killAt || st.Ingested != acked {
		return fmt.Errorf("restored service opens slot %d with %d reports, want slot %d with %d", st.Slot, st.Ingested, killAt, acked)
	}
	if err := tick(killAt); err != nil {
		return err
	}
	for slot := killAt + 1; slot < eff.T; slot++ {
		if err := book(slot); err != nil {
			return err
		}
		if err := tick(slot); err != nil {
			return err
		}
	}
	var got model.Trajectory
	if err := cl.get("/v1/trajectory", &got); err != nil {
		return err
	}
	var stats serve.Stats
	if err := cl.get("/v1/stats", &stats); err != nil {
		return err
	}
	if err := shutdown(srv, ctrl); err != nil {
		return err
	}

	wantRaw, err := goldenTrajectory(ctx, eff, scfg, tr)
	if err != nil {
		return err
	}
	gotRaw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(wantRaw, gotRaw) {
		fmt.Fprintln(out, "smoke: FAIL — served trajectory diverges from the golden batch replay")
		return fmt.Errorf("smoke failed")
	}
	fmt.Fprintf(out, "smoke: PASS — %d slots, %d requests, %d window solves, %d degraded, trajectory matches golden replay across kill/restore\n",
		eff.T, stats.Ingested, stats.Solves, stats.Degraded)
	return nil
}

// chaosChild is one child jocserve incarnation under the chaos harness.
type chaosChild struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// startChild spawns a fresh jocserve process over the shared state dir.
func startChild(self string, args []string, addrPath string) (*chaosChild, error) {
	_ = os.Remove(addrPath) // never read a previous incarnation's address
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &chaosChild{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(ch.done)
	}()
	return ch, nil
}

func (ch *chaosChild) dead() bool {
	select {
	case <-ch.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child and reaps it.
func (ch *chaosChild) kill() {
	_ = ch.cmd.Process.Kill()
	<-ch.done
}

// waitReady polls the child's address file and /v1/readyz until recovery
// has finished — or the child died on the way up (an armed disk fault
// firing inside recovery's repair save).
func (ch *chaosChild) waitReady(addrPath string, timeout time.Duration) (*smokeClient, error) {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: 10 * time.Second}
	for {
		if ch.dead() {
			return nil, fmt.Errorf("child exited before becoming ready")
		}
		if raw, err := os.ReadFile(addrPath); err == nil && len(bytes.TrimSpace(raw)) > 0 {
			cl := &smokeClient{base: "http://" + string(bytes.TrimSpace(raw)), hc: hc}
			if resp, err := hc.Get(cl.base + "/v1/readyz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cl, nil
				}
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("child not ready after %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runChaos is the -chaos kill -9 harness: a real child process serving
// from a shared durable state dir is killed at seeded-random points — by
// SIGKILL between HTTP operations and by exit(137) in the middle of WAL
// appends and snapshot publishes via -disk-faults — at least minKills
// times while the parent replays a deterministic trace against it. After
// every restart the parent asserts that every acknowledged report
// survived and nothing was double-ingested; the finished trajectory must
// match the golden batch replay byte for byte.
func runChaos(ctx context.Context, out io.Writer, eff *model.Instance, scfg serve.Config, seed uint64, minKills int, chaosSeed uint64, childArgs []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "jocserve-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	stateDir := filepath.Join(dir, "state")
	addrPath := filepath.Join(dir, "addr")
	baseArgs := append(append([]string{}, childArgs...),
		"-addr", "localhost:0", "-addr-file", addrPath, "-state-dir", stateDir)

	tr := trace.Generate(eff.Demand, seed)
	T := eff.T
	batches := make([][]serve.Request, T)
	cum := make([]int, T+1) // cum[s] = reports in slots < s
	for s := 0; s < T; s++ {
		var batch []serve.Request
		for n := 0; n < tr.N(); n++ {
			for _, r := range tr.Slot(s, n) {
				batch = append(batch, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
		}
		batches[s] = batch
		cum[s+1] = cum[s] + len(batch)
	}
	fmt.Fprintf(out, "chaos: %s over T=%d, %d requests, >=%d kills, state %s\n",
		scfg.Online.Name(), T, tr.Len(), minKills, stateDir)

	rng := rand.New(rand.NewSource(int64(chaosSeed)))
	kills, lastAcked := 0, 0
	deadline := time.Now().Add(10 * time.Minute)
	var finalTraj json.RawMessage
	for cycle := 0; finalTraj == nil; cycle++ {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: no convergence after 10m (%d kills, %d/%d reports)", kills, lastAcked, cum[T])
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Arm this incarnation: most cycles die mid-write inside one of the
		// first few durability operations, the rest get a plain SIGKILL
		// between operations.
		args := baseArgs
		switch rng.Intn(4) {
		case 1:
			args = append(args, "-disk-faults", fmt.Sprintf("tearwal:op=%d", rng.Intn(3)+1), "-disk-seed", fmt.Sprint(cycle+1))
		case 2:
			args = append(args, "-disk-faults", fmt.Sprintf("tearsnap:op=%d", rng.Intn(2)+1), "-disk-seed", fmt.Sprint(cycle+1))
		case 3:
			args = append(args, "-disk-faults", fmt.Sprintf("flipsnap:op=%d", rng.Intn(2)+1), "-disk-seed", fmt.Sprint(cycle+1))
		}
		child, err := startChild(self, args, addrPath)
		if err != nil {
			return err
		}
		cl, err := child.waitReady(addrPath, 30*time.Second)
		if err != nil {
			child.kill()
			kills++
			continue
		}
		// Restart-equivalence gate: exactly the acknowledged reports, the
		// slot the durable close markers reach, nothing lost or doubled.
		var st serve.Stats
		if err := cl.get("/v1/stats", &st); err != nil {
			child.kill()
			kills++
			continue
		}
		if int(st.Ingested) < lastAcked {
			child.kill()
			return fmt.Errorf("chaos: FAIL — %d reports acknowledged, only %d survived the restart", lastAcked, st.Ingested)
		}
		slot := st.Slot
		var booked bool
		if st.Done {
			booked = true
		} else {
			switch int(st.Ingested) {
			case cum[slot]:
				booked = len(batches[slot]) == 0
			case cum[slot] + len(batches[slot]):
				booked = true
			default:
				child.kill()
				return fmt.Errorf("chaos: FAIL — restart shows %d reports at slot %d, expected %d or %d",
					st.Ingested, slot, cum[slot], cum[slot]+len(batches[slot]))
			}
		}

		ops := rng.Intn(3) // 0 kills straight after recovery
		done := st.Done
		for op := 0; op < ops && !done; op++ {
			if !booked {
				var ack serve.IngestResponse
				if err := cl.post("/v1/requests", serve.IngestRequest{Requests: batches[slot]}, &ack); err != nil {
					break // child died mid-append
				}
				lastAcked = cum[slot] + len(batches[slot])
				booked = true
			} else {
				var res serve.TickResult
				if err := cl.post("/v1/tick", nil, &res); err != nil {
					break // child died mid-close
				}
				done = res.Done
				if !done {
					slot = res.NextSlot
					booked = len(batches[slot]) == 0
				}
			}
		}
		if done {
			if err := cl.get("/v1/trajectory", &finalTraj); err != nil {
				child.kill()
				kills++
				continue // re-read it from the next incarnation
			}
		}
		child.kill()
		if finalTraj == nil {
			kills++
		}
	}

	// One last clean restart: the finished horizon must be durable too.
	child, err := startChild(self, baseArgs, addrPath)
	if err != nil {
		return err
	}
	cl, err := child.waitReady(addrPath, 30*time.Second)
	if err != nil {
		return fmt.Errorf("chaos: final restart: %w", err)
	}
	var st serve.Stats
	if err := cl.get("/v1/stats", &st); err != nil {
		child.kill()
		return err
	}
	var replayTraj json.RawMessage
	if err := cl.get("/v1/trajectory", &replayTraj); err != nil {
		child.kill()
		return err
	}
	child.kill()
	if !st.Done || st.Ingested != int64(cum[T]) {
		return fmt.Errorf("chaos: FAIL — final restart shows done=%v ingested=%d, want done=true ingested=%d", st.Done, st.Ingested, cum[T])
	}

	want, err := goldenTrajectory(ctx, eff, scfg, tr)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, bytes.TrimSpace(finalTraj)) || !bytes.Equal(want, bytes.TrimSpace(replayTraj)) {
		fmt.Fprintln(out, "chaos: FAIL — trajectory diverges from the golden batch replay")
		return fmt.Errorf("chaos failed")
	}
	if kills < minKills {
		return fmt.Errorf("chaos: only %d kills exercised, %d required — raise -T or lower -chaos", kills, minKills)
	}
	fmt.Fprintf(out, "chaos: PASS — %d kills, %d reports, trajectory identical across every restart\n", kills, cum[T])
	return nil
}
