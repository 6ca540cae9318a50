package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"edgecache/internal/obs"
)

// runBudget bounds one run, whatever --seconds asks for: no new episode
// starts once serving has taken this long.
const runBudget = 90 * time.Second

// stateRoot holds the state dirs, relative to the directory the
// benchmark runs in.
const stateRoot = ".bench_build/perfbench-state"

// serveProcs is the GOMAXPROCS the service runs at once the inputs and
// golden replays are made. One: the solver's fork-join fan-out then never
// waits on a second vCPU of a shared host being scheduled at the same
// moment, which swung CHC slot closes by a third between identical runs;
// the other vCPU is left to the runtime's background work and the OS.
const serveProcs = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-chc or serve-ingest")
	seed := fs.Uint64("seed", 1, "workload seed: the report trace is drawn from it")
	seconds := fs.Int("seconds", 10, "how long the timed replay runs, at least")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer report instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := specs[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve-chc|serve-ingest, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	root, err := filepath.Abs(filepath.Join(stateRoot, fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	ctx := context.Background()
	b := &bench{w: w, seed: *seed, root: root}
	var r *report
	if *traceFlag == 1 {
		r, err = measureLayers(ctx, b)
	} else {
		r, err = measureEndToEnd(ctx, b, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		b.ops.check(err)
	}
	if b.ops.first != nil {
		fmt.Fprintln(stderr, "perfbench: first failure:", b.ops.first)
	}
	if r == nil {
		return 1
	}
	r.meta = metadata(*name, *seed, *traceFlag, root)
	if err := r.write(stdout, &b.ops); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.ops.failed > 0 {
		return 1
	}
	return 0
}

// setupRounds is how many stand-alone set-ups a timed run makes before
// each episode, besides the episode's own, spread over the run so the
// set-up median does not hinge on one moment of disk latency.
const setupRounds = 10

// measureEndToEnd serves whole horizons over HTTP, untraced, until the
// time is spent and every trace of the run has been served once.
func measureEndToEnd(ctx context.Context, b *bench, seconds time.Duration) (*report, error) {
	traces := make([]*inputs, b.w.traces)
	for i := range traces {
		inp, err := b.inputs(ctx, i)
		if err != nil {
			return nil, err
		}
		traces[i] = inp
	}
	runtime.GOMAXPROCS(serveProcs)
	var eps []*episode
	var setups []time.Duration
	var spent time.Duration // serving only; input generation is off the clock
	for len(eps) < len(traces) || spent < seconds {
		if spent > runBudget {
			break
		}
		for i := 0; i < setupRounds; i++ {
			d, err := standaloneSetUp(ctx, b, traces[0].seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		e0 := time.Now()
		ep, err := b.run(ctx, overHTTP, len(eps), traces[len(eps)%len(traces)])
		if err != nil {
			return nil, err
		}
		spent += time.Since(e0)
		eps = append(eps, ep)
	}

	// Every figure is taken over the pooled samples of all episodes, so
	// it weighs the run's traces alike and a burst of machine noise moves
	// it only by the share of samples the burst covers. The per-episode
	// figures go on the metadata line to show the spread within the run.
	per := map[string][]float64{}
	var ingests, ticks, recovers []time.Duration
	var acked int
	var replay, closing time.Duration
	for _, ep := range eps {
		setups = append(setups, ep.setup)
		ingests = append(ingests, ep.ingests...)
		ticks = append(ticks, ep.ticks...)
		recovers = append(recovers, ep.recovers...)
		acked += ep.acked
		replay += ep.replay()
		closing += sum(ep.ticks)
		per["slot_close_mean_ms"] = append(per["slot_close_mean_ms"], ms(sum(ep.ticks))/float64(len(ep.ticks)))
		per["ingest_p50_us"] = append(per["ingest_p50_us"], us(median(ep.ingests)))
		per["reports_per_s"] = append(per["reports_per_s"], float64(ep.acked)/ep.replay().Seconds())
		per["recover_p50_ms"] = append(per["recover_p50_ms"], ms(median(ep.recovers)))
	}
	closeTail, ok := tailPercentile(len(ticks), []float64{90})
	if !ok {
		return nil, fmt.Errorf("%d slot closes leave fewer than %d beyond p90", len(ticks), minTail)
	}
	ingestTail, ok := tailPercentile(len(ingests), []float64{90, 99})
	if !ok {
		return nil, fmt.Errorf("%d ingests leave no tail percentile with %d beyond it", len(ingests), minTail)
	}
	r := &report{}
	r.add("setup_s", median(setups).Seconds(), "s")
	// The close figure is a mean, not a median: window solves differ by a
	// factor of ten from slot to slot and fall in two groups of about
	// equal size, so the median sits in the gap between them and jumped
	// by a tenth between runs of the same inputs.
	r.add("slot_close_mean_ms", ms(closing)/float64(len(ticks)), "ms")
	r.add("slot_close_p90_ms", ms(percentile(ticks, closeTail)), "ms")
	r.add("ingest_p50_us", us(median(ingests)), "us")
	r.add("reports_per_s", float64(acked)/replay.Seconds(), "1/s")
	r.add("recover_p50_ms", ms(median(recovers)), "ms")
	var cost float64
	for _, inp := range traces {
		cost += inp.cost / float64(len(traces))
	}
	r.add("committed_cost", cost, "cost")
	rss, _ := obs.PeakRSSBytes()
	r.add("peak_rss_mib", float64(rss)/(1<<20), "MiB")
	r.samples = map[string]any{
		"episodes":         len(eps),
		"slot_closes":      len(ticks),
		"ingests":          len(ingests),
		"ingest_tail_pct":  ingestTail,
		"ingest_tail_us":   us(percentile(ingests, ingestTail)),
		"recovers":         len(recovers),
		"setups":           len(setups),
		"serving_s":        spent.Seconds(),
		"per_episode":      per,
		"close_deciles_ms": deciles(ticks),
	}
	return r, nil
}

// standaloneSetUp times one set-up of a fresh service and stops it.
func standaloneSetUp(ctx context.Context, b *bench, seed uint64) (time.Duration, error) {
	dir := filepath.Join(b.root, "setup")
	svc, _, _, d, err := b.setUp(ctx, overHTTP, dir, seed)
	if err != nil {
		return 0, err
	}
	b.ops.check(svc.stop())
	return d, os.RemoveAll(dir)
}

// measureLayers is the traced run: one untraced episode over HTTP (for
// the HTTP layer's share of ingest), one untraced in-process episode (the
// baseline for the tracing overhead) and one traced in-process episode,
// all on the same inputs.
func measureLayers(ctx context.Context, b *bench) (*report, error) {
	inp, err := b.inputs(ctx, 0)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(serveProcs)
	var eps [3]*episode
	for i, m := range []mode{overHTTP, inProcess, traced} {
		if eps[i], err = b.run(ctx, m, i, inp); err != nil {
			return nil, err
		}
	}
	r := layerMetrics(b, inp, eps[0], eps[1], eps[2])
	r.samples = map[string]any{
		"http_ingests":    len(eps[0].ingests),
		"traced_spans":    len(eps[2].spans),
		"traced_wall_s":   eps[2].wall().Seconds(),
		"untraced_wall_s": eps[1].wall().Seconds(),
	}
	return r, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's metrics plus its metadata and sample counts.
type report struct {
	values  map[string]metric
	samples map[string]any
	meta    map[string]any
}

func (r *report) add(name string, v float64, unit string) {
	if r.values == nil {
		r.values = map[string]metric{}
	}
	r.values[name] = metric{v, unit}
}

// write prints the run's metadata and sample counts on one line, then the
// result object as the last line of output.
func (r *report) write(w io.Writer, o *ops) error {
	for name := range r.values {
		if !validName(name) {
			return fmt.Errorf("metric name %q is not valid", name)
		}
	}
	detail, err := json.Marshal(map[string]any{"meta": r.meta, "samples": r.samples})
	if err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, max(o.attempted, 1), o.failed, r.values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, result)
	return err
}

// metadata records what a result must be compared like with like on.
func metadata(name string, seed uint64, trace int, stateDir string) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"state_fs":   fsType(stateDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
