package main

import (
	"runtime/metrics"
	"slices"
	"time"

	"edgecache/internal/obs"
)

// runtimeReading is a point-in-time copy of the runtime counters the
// per-layer report uses.
type runtimeReading struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var r runtimeReading
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	return r
}

// spanStats aggregates one traced replay's spans by name.
type spanStats struct {
	durs  map[string][]time.Duration // every span's duration
	self  map[string]time.Duration   // Σ duration minus direct children
	under map[string]time.Duration   // Σ duration of spans whose parent is a "tick"
	// covered is the part of the replay window inside some root span: the
	// time the trace attributes to a layer at all.
	covered time.Duration
}

func analyzeSpans(recs []obs.SpanRecord, from, to time.Time) spanStats {
	st := spanStats{
		durs:  map[string][]time.Duration{},
		self:  map[string]time.Duration{},
		under: map[string]time.Duration{},
	}
	name := make(map[uint64]string, len(recs))
	children := make(map[uint64]time.Duration, len(recs))
	for _, r := range recs {
		name[r.ID] = r.Name
		if r.Parent != 0 {
			children[r.Parent] += r.Duration
		}
	}
	type span struct{ start, end time.Time }
	var roots []span
	for _, r := range recs {
		st.durs[r.Name] = append(st.durs[r.Name], r.Duration)
		st.self[r.Name] += max(0, r.Duration-children[r.ID])
		if r.Parent != 0 && name[r.Parent] == "tick" {
			st.under[r.Name] += r.Duration
		}
		if r.Parent == 0 {
			s, e := r.Start, r.Start.Add(r.Duration)
			if s.Before(from) {
				s = from
			}
			if e.After(to) {
				e = to
			}
			if s.Before(e) {
				roots = append(roots, span{s, e})
			}
		}
	}
	// Concurrent edge connections overlap their ingest spans: count the
	// union, not the sum.
	slices.SortFunc(roots, func(a, b span) int { return a.start.Compare(b.start) })
	var cur span
	for i, r := range roots {
		switch {
		case i == 0:
			cur = r
		case r.start.After(cur.end):
			st.covered += cur.end.Sub(cur.start)
			cur = r
		case r.end.After(cur.end):
			cur.end = r.end
		}
	}
	if len(roots) > 0 {
		st.covered += cur.end.Sub(cur.start)
	}
	return st
}

func (st spanStats) total(name string) time.Duration { return sum(st.durs[name]) }

// selfNames are the span names whose self time the traced run reports:
// the benchmark's own spans around its calls into serve, and the
// program's existing spans below Tick and Open.
var selfNames = []string{
	"ingest", "tick", "snapshot", "open",
	"window_solve", "solve", "dual_batch", "caching", "loadbalance", "recover",
}

// layerMetrics derives the per-layer report from the three episodes of a
// traced run: httpEp (untraced, over HTTP), plainEp (untraced, in
// process) and tracedEp (traced, in process; same inputs).
func layerMetrics(b *bench, inp *inputs, httpEp, plainEp, tracedEp *episode) *report {
	r := &report{}
	ep := tracedEp
	sp := analyzeSpans(ep.spans, ep.start, ep.end)
	wall := ep.wall()
	counter := func(name string) float64 {
		return float64(ep.after.Counters[name] - ep.before.Counters[name])
	}
	busyMs := func(timer string) float64 {
		return ms(ep.after.Timers[timer].Total - ep.before.Timers[timer].Total)
	}
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ticks := sp.total("tick")

	r.add("serve.http.ingest_overhead_us", us(median(httpEp.ingests)-median(plainEp.ingests)), "us")
	r.add("serve.ingest.p50_us", us(median(sp.durs["ingest"])), "us")
	r.add("serve.ingest.busy_share", share(float64(sp.total("ingest")), float64(wall)*float64(b.w.conns)), "ratio")
	r.add("serve.wal.appends", counter("serve.wal_appends"), "count")
	r.add("serve.wal.bytes_per_report", share(float64(ep.walBytes), float64(inp.reports)), "B")
	r.add("serve.tick.p50_ms", ms(median(sp.durs["tick"])), "ms")
	r.add("serve.tick.self_share", share(float64(sp.self["tick"]), float64(ticks)), "ratio")
	r.add("serve.snapshot.publish_p50_ms", ms(median(sp.durs["snapshot"])), "ms")
	r.add("serve.snapshot.bytes", float64(median(ep.snapBytes)), "B")
	r.add("serve.recover.open_p50_ms", ms(median(sp.durs["open"])), "ms")
	r.add("serve.wal.replayed", counter("serve.wal_replayed"), "count")

	r.add("online.window_solves", counter("online.window_solves"), "count")
	r.add("online.dual_iterations", counter("online.dual_iterations"), "count")
	r.add("online.window_solve.p50_ms", ms(median(sp.durs["window_solve"])), "ms")
	r.add("online.window_solve.busy_share", share(float64(sp.under["window_solve"]), float64(ticks)), "ratio")

	solves := counter("core.solves")
	r.add("core.iterations_per_solve", share(counter("core.iterations"), solves), "count")
	r.add("core.converged_share", share(counter("core.converged"), solves), "ratio")
	r.add("core.p1.busy_ms", busyMs("core.p1_solve"), "ms")
	r.add("core.p2.busy_ms", busyMs("core.p2_solve"), "ms")
	r.add("core.recover.busy_ms", busyMs("core.recover"), "ms")

	kept, fresh := counter("caching.p1_resolve_kept"), counter("caching.p1_resolve_fresh")
	r.add("caching.p1_flow_solves", counter("caching.p1_flow_solves"), "count")
	r.add("caching.p1_flow.busy_ms", busyMs("caching.p1_flow_solve"), "ms")
	r.add("caching.p1_sbs_skips", counter("caching.p1_sbs_skips"), "count")
	r.add("caching.p1_resolve_kept_share", share(kept, kept+fresh), "ratio")

	p2, skips := counter("loadbalance.p2_solves"), counter("loadbalance.p2_slot_skips")
	r.add("loadbalance.p2_solves", p2, "count")
	r.add("loadbalance.p2_gradient_steps", counter("loadbalance.p2_gradient_steps"), "count")
	r.add("loadbalance.p2.busy_ms", busyMs("loadbalance.p2_solve"), "ms")
	r.add("loadbalance.p2_slot_skip_share", share(skips, skips+p2), "ratio")
	r.add("loadbalance.p2_parallelism", share(busyMs("loadbalance.p2_solve"), busyMs("core.p2_solve")), "ratio")

	r.add("runtime.alloc_bytes_per_op", share(float64(ep.rtAfter.allocBytes-ep.rtBefore.allocBytes), float64(len(ep.ticks))), "B")
	r.add("runtime.gc_cycles", float64(ep.rtAfter.gcCycles-ep.rtBefore.gcCycles), "count")

	r.add("attr.unattributed_share", 1-share(float64(sp.covered), float64(wall)), "ratio")
	r.add("attr.trace_overhead_share", share(float64(wall), float64(plainEp.wall()))-1, "ratio")
	for _, name := range selfNames {
		r.add("attr."+name+".self_ms", ms(sp.self[name]), "ms")
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
