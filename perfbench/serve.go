package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"edgecache"
	"edgecache/internal/audit"
	"edgecache/internal/model"
	"edgecache/internal/obs"
	"edgecache/internal/online"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
	"edgecache/internal/workload"
)

// topologySeed fixes the deployment (stations, classes, popularity model):
// it is configuration, not input. The workload seed drives the reports.
const topologySeed = 1

// estimatorFloor selects the demand estimator's default decay floor, as
// the jocserve command line does.
const estimatorFloor = -1

// spec is one service workload: a topology, a controller and the shape of
// the edge traffic that drives it.
type spec struct {
	sbs, classes, catalogue, cache int
	bandwidth, beta, density       float64 // density 0 keeps the paper's
	horizon                        int
	online                         online.Config
	conns, batch                   int
	// restartEvery restarts the service before the tick of every slot
	// s > 0 with s%restartEvery == 0, once that slot's reports are acked.
	restartEvery int
	// traces is how many report traces a timed run draws from its seed
	// and serves, one episode each at least. A run's figures mix that many
	// draws, so they depend less on which draw the seed happens to give.
	traces int
}

var specs = map[string]spec{
	"serve-chc": {
		sbs: 2, classes: 8, catalogue: 30, cache: 4, bandwidth: 20, beta: 50,
		horizon: 30, online: online.CHC(6, 3), conns: 1, batch: 64, restartEvery: 10, traces: 6,
	},
	"serve-ingest": {
		sbs: 4, classes: 8, catalogue: 30, cache: 5, bandwidth: 3000, beta: 100, density: 400,
		horizon: 60, online: online.RHC(2), conns: 2, batch: 16, restartEvery: 10, traces: 3,
	},
}

// build makes the topology and draws the report trace from seed.
func (w spec) build(seed uint64) (*model.Instance, *trace.Trace, error) {
	scn := edgecache.NewScenario(w.sbs, w.catalogue, w.classes, w.horizon).
		WithCache(w.cache).
		WithBandwidth(w.bandwidth).
		WithBeta(w.beta).
		WithJitter(0.4).
		WithSeed(topologySeed)
	if w.density > 0 {
		scn = scn.WithDensity(w.density)
	}
	in, _, err := scn.Build()
	if err != nil {
		return nil, nil, err
	}
	return in, trace.Generate(in.Demand, seed), nil
}

// recoverRepeats is how many times each restart stops and recovers the
// service. Recovery only reads the state dir, so the repeats redo the
// same work and their median is steadier than one sample.
const recoverRepeats = 3

// mode selects how the benchmark talks to the controller.
type mode int

const (
	// overHTTP drives a serve.Server over loopback HTTP, untraced.
	overHTTP mode = iota
	// inProcess calls the Controller directly, untraced.
	inProcess
	// traced calls the Controller directly with spans around every call
	// and the tracer installed in the context passed to Tick and Open.
	traced
)

// ops counts attempted and failed operations; safe for concurrent use.
type ops struct {
	mu                sync.Mutex
	attempted, failed int
	first             error
}

// check records one operation and reports whether it succeeded.
func (o *ops) check(err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.first == nil {
			o.first = err
		}
	}
	return err == nil
}

// bench is one run: the workload, its seed and the operation counts.
type bench struct {
	w    spec
	seed uint64
	root string
	ops  ops
}

// inputs is one report trace, by seed, and its golden outputs. The trace
// itself is drawn again by each episode's set-up rather than kept, so the
// benchmark's own heap stays small next to the service's.
type inputs struct {
	seed    uint64
	reports int
	golden  []byte
	cost    float64
}

// inputs draws the run's i-th report trace and computes its golden
// trajectory: a batch online.Run over the trace's empirical demand with a
// fresh estimator — what an unkilled, unserved controller commits. None
// of this is timed.
func (b *bench) inputs(ctx context.Context, i int) (*inputs, error) {
	seed := b.seed*0x9e3779b97f4a7c15 + uint64(i)
	base, tr, err := b.w.build(seed)
	if err != nil {
		return nil, err
	}
	in := *base
	in.Demand = tr.EmpiricalDemand()
	est, err := workload.NewOnlineEstimator(in.Demand, 0, estimatorFloor)
	if err != nil {
		return nil, err
	}
	res, err := online.Run(ctx, &in, est, b.w.online)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	golden, err := json.Marshal(res.Trajectory)
	if err != nil {
		return nil, err
	}
	b.ops.check(audit.Trajectory(&in, res.Trajectory, nil, audit.Options{}).Err())
	return &inputs{seed: seed, reports: tr.Len(), golden: golden, cost: in.TotalCost(res.Trajectory).Total}, nil
}

// client is one edge connection: its own transport, so each connection
// keeps its own keep-alive TCP stream to the service.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

// do sends one request and returns the whole reply body and the round
// trip, which ends when the last reply byte is read. Non-2xx is an error.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, rtt, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, rtt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, rtt, nil
}

// service is one incarnation of the controller (and its server in
// overHTTP mode) over a state dir.
type service struct {
	ctrl    *serve.Controller
	srv     *serve.Server
	clients []*client
}

// open recovers (or creates) the controller over dir and, over HTTP,
// starts its server and one client per edge connection.
func (b *bench) open(ctx context.Context, m mode, in *model.Instance, dir string) (*service, error) {
	ctrl, err := serve.Open(ctx, in, serve.Config{
		Online:         b.w.online,
		EstimatorFloor: estimatorFloor,
		StateDir:       dir,
		WALFsync:       serve.FsyncOff,
	})
	if err != nil {
		return nil, err
	}
	svc := &service{ctrl: ctrl}
	if m != overHTTP {
		return svc, nil
	}
	srv, err := serve.NewServer(serve.ServerConfig{Controller: ctrl})
	if err == nil {
		err = srv.Start("localhost:0")
	}
	if err != nil {
		_ = ctrl.Close() // the start error is the one to report
		return nil, err
	}
	svc.srv = srv
	for c := 0; c < b.w.conns; c++ {
		svc.clients = append(svc.clients, newClient(srv.Addr()))
	}
	return svc, nil
}

// stop shuts the server down (draining in-flight requests) and closes the
// controller, releasing its WAL.
func (s *service) stop() error {
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
		for _, c := range s.clients {
			c.hc.CloseIdleConnections()
		}
	}
	if cerr := s.ctrl.Close(); err == nil {
		err = cerr
	}
	return err
}

// episode is one served horizon: genesis, every slot's reports and close,
// the fixed restarts, and the final checks.
type episode struct {
	setup      time.Duration
	start, end time.Time
	prep       time.Duration // client input preparation, off the clock
	restarts   time.Duration // stop + recover, excluded from the replay
	ingests    []time.Duration
	ticks      []time.Duration
	recovers   []time.Duration
	snapBytes  []int64 // side snapshot sizes (in-process modes)
	walBytes   int64   // WAL segment bytes before each tick, summed
	acked      int

	// Counter, runtime and span readings over the replay (traced mode).
	before, after     obs.Snapshot
	rtBefore, rtAfter runtimeReading
	spans             []obs.SpanRecord
}

// wall is the replay window, first report to last close, less the
// client's input preparation; restarts are included.
func (ep *episode) wall() time.Duration { return ep.end.Sub(ep.start) - ep.prep }

// replay is the wall with the timed restarts excluded.
func (ep *episode) replay() time.Duration { return ep.wall() - ep.restarts }

// setUp is the time to a usable service: topology build, trace
// generation, genesis Open (start-up window solves, generation 0) and,
// over HTTP, listen.
func (b *bench) setUp(ctx context.Context, m mode, dir string, seed uint64) (*service, *model.Instance, *trace.Trace, time.Duration, error) {
	t0 := time.Now()
	in, tr, err := b.w.build(seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	svc, err := b.open(ctx, m, in, dir)
	if !b.ops.check(err) {
		return nil, nil, nil, 0, fmt.Errorf("genesis open: %w", err)
	}
	return svc, in, tr, time.Since(t0), nil
}

// run serves one horizon in its own state dir. Failures of the system
// under test are counted in b.ops; a returned error means the episode
// could not continue.
func (b *bench) run(ctx context.Context, m mode, idx int, inp *inputs) (*episode, error) {
	dir := filepath.Join(b.root, fmt.Sprintf("ep%d", idx))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tctx := ctx // where spans go; plain ctx for the genesis set-up
	var tracer *obs.Tracer
	if m == traced {
		tracer = obs.NewTracer(nil)
		tctx = obs.WithTracer(ctx, tracer)
	}

	ep := &episode{}
	svc, in, tr, setup, err := b.setUp(ctx, m, dir, inp.seed)
	if err != nil {
		return nil, err
	}
	ep.setup = setup
	defer func() {
		if svc != nil {
			_ = svc.stop() // errors after the last check do not matter
		}
	}()

	runtime.GC() // every episode starts from the same heap
	if m == traced {
		ep.before, ep.rtBefore = obs.Default.Snapshot(), readRuntime()
	}
	ep.start = time.Now()
	for s := 0; s < b.w.horizon; s++ {
		p0 := time.Now()
		batches, bodies, err := b.slotInputs(tr, m, s)
		if err != nil {
			return nil, err
		}
		ep.prep += time.Since(p0)
		ep.acked += b.ingestSlot(tctx, svc, s, batches, bodies, ep)
		if s > 0 && s%b.w.restartEvery == 0 {
			r0 := time.Now()
			for i := 0; i < recoverRepeats; i++ {
				b.ops.check(svc.stop())
				o0 := time.Now()
				sctx, span := obs.StartSpan(tctx, "open")
				svc, err = b.open(sctx, m, in, dir)
				span.End()
				if !b.ops.check(err) {
					svc = nil
					return nil, fmt.Errorf("recover at slot %d: %w", s, err)
				}
				ep.recovers = append(ep.recovers, time.Since(o0))
				var lost error
				if got := svc.ctrl.Stats().Ingested; int(got) != ep.acked {
					lost = fmt.Errorf("slot %d: %d reports acked, %d survived the restart", s, ep.acked, got)
				}
				b.ops.check(lost)
			}
			ep.restarts += time.Since(r0)
		}
		if m != overHTTP {
			// serve names the WAL segment holding the open slot's reports
			// after the slot; the close marker lands in it during the tick.
			if st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal.%06d", s))); err == nil {
				ep.walBytes += st.Size()
			}
		}
		b.tick(tctx, svc, m, s, ep)
		if m != overHTTP {
			b.sidePublish(tctx, svc, ep)
		}
	}
	ep.end = time.Now()
	if m == traced {
		ep.after, ep.rtAfter = obs.Default.Snapshot(), readRuntime()
		ep.spans = tracer.Records()
	}

	var got []byte
	if m == overHTTP {
		raw, _, err := svc.clients[0].do(http.MethodGet, "/v1/trajectory", nil)
		b.ops.check(err)
		got = bytes.TrimSpace(raw)
	} else if got, err = json.Marshal(svc.ctrl.Trajectory()); err != nil {
		return nil, err
	}
	var diverged, unfinished error
	if !bytes.Equal(got, inp.golden) {
		diverged = errors.New("served trajectory diverges from the golden batch replay")
	}
	if st := svc.ctrl.Stats(); !st.Done || int(st.Ingested) != inp.reports {
		unfinished = fmt.Errorf("episode ends at done=%v with %d of %d reports", st.Done, st.Ingested, inp.reports)
	}
	b.ops.check(diverged)
	b.ops.check(unfinished)
	return ep, nil
}

// slotInputs cuts slot s's reports into the edge connections' batches
// and, over HTTP, encodes them as request bodies. It runs slot by slot,
// off the clock, so the benchmark never holds a whole horizon's bodies.
func (b *bench) slotInputs(tr *trace.Trace, m mode, s int) ([][][]serve.Request, [][][]byte, error) {
	batches, err := splitBatches(tr, s, b.w.conns, b.w.batch)
	if err != nil || m != overHTTP {
		return batches, nil, err
	}
	bodies := make([][][]byte, len(batches))
	for c, list := range batches {
		for _, batch := range list {
			raw, err := json.Marshal(serve.IngestRequest{Requests: batch})
			if err != nil {
				return nil, nil, err
			}
			bodies[c] = append(bodies[c], raw)
		}
	}
	return batches, bodies, nil
}

// ingestSlot sends slot s's batches, one goroutine per edge connection,
// each waiting for its ack before sending its next batch; bodies is nil
// in process. It returns the number of reports acked.
func (b *bench) ingestSlot(ctx context.Context, svc *service, s int, conns [][][]serve.Request, bodies [][][]byte, ep *episode) int {
	lat := make([][]time.Duration, len(conns))
	acked := make([]int, len(conns))
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, batch := range conns[c] {
				var rtt time.Duration
				var err error
				if bodies != nil {
					var raw []byte
					raw, rtt, err = svc.clients[c].do(http.MethodPost, "/v1/requests", bodies[c][i])
					if err == nil {
						var ack serve.IngestResponse
						if err = json.Unmarshal(raw, &ack); err == nil && (ack.Slot != s || ack.Accepted != len(batch)) {
							err = fmt.Errorf("slot %d: ack %+v for %d reports", s, ack, len(batch))
						}
					}
				} else {
					_, span := obs.StartSpan(ctx, "ingest")
					start := time.Now()
					var slot int
					slot, err = svc.ctrl.Ingest(batch)
					rtt = time.Since(start)
					span.End()
					if err == nil && slot != s {
						err = fmt.Errorf("batch booked under slot %d, want %d", slot, s)
					}
				}
				if b.ops.check(err) {
					lat[c] = append(lat[c], rtt)
					acked[c] += len(batch)
				}
			}
		}(c)
	}
	wg.Wait()
	n := 0
	for c := range conns {
		ep.ingests = append(ep.ingests, lat[c]...)
		n += acked[c]
	}
	return n
}

// tick closes slot s and records the close latency.
func (b *bench) tick(ctx context.Context, svc *service, m mode, s int, ep *episode) {
	var d time.Duration
	var err error
	if m == overHTTP {
		var raw []byte
		raw, d, err = svc.clients[0].do(http.MethodPost, "/v1/tick", nil)
		if err == nil {
			var res struct {
				Slot int `json:"slot"`
			}
			if err = json.Unmarshal(raw, &res); err == nil && res.Slot != s {
				err = fmt.Errorf("tick closed slot %d, want %d", res.Slot, s)
			}
		}
	} else {
		tctx, span := obs.StartSpan(ctx, "tick")
		start := time.Now()
		var res *serve.TickResult
		res, err = svc.ctrl.Tick(tctx)
		d = time.Since(start)
		span.End()
		if err == nil && res.Slot != s {
			err = fmt.Errorf("tick closed slot %d, want %d", res.Slot, s)
		}
	}
	if b.ops.check(err) {
		ep.ticks = append(ep.ticks, d)
	}
}

// sidePublish repeats the generation publish the tick just made —
// snapshot, encode, checksum, fsync, rename — into a side path, in a span
// of its own, because Tick does not expose its share.
func (b *bench) sidePublish(ctx context.Context, svc *service, ep *episode) {
	path := filepath.Join(b.root, "side-snapshot.json")
	_, span := obs.StartSpan(ctx, "snapshot")
	err := serve.SaveSnapshot(path, svc.ctrl.Snapshot())
	span.End()
	if !b.ops.check(err) {
		return
	}
	if st, err := os.Stat(path); err == nil {
		ep.snapBytes = append(ep.snapBytes, st.Size())
	}
}
