package main

import (
	"reflect"
	"testing"
	"time"

	"edgecache"
	"edgecache/internal/obs"
	"edgecache/internal/serve"
	"edgecache/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 99},                        // p90 leaves 9 beyond
		{n: 100, want: 90, ok: true},   // exactly 10 beyond p90
		{n: 999, want: 90, ok: true},   // p99 leaves 9 beyond
		{n: 1000, want: 99, ok: true},  // exactly 10 beyond p99
		{n: 46650, want: 99, ok: true}, // candidates cap the choice
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n, []float64{90, 99})
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64(nil)); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "slot_close_p90_ms", "serve.wal.bytes_per_report", "1-x", "a"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := "a"
	for len(long) <= 64 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "µs", "a/b", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

func TestSplitBatchesDeterministicAndComplete(t *testing.T) {
	in, _, err := edgecache.NewScenario(4, 12, 3, 3).WithDensity(40).WithSeed(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(in.Demand, 7)
	for _, conns := range []int{1, 2, 3, 4} {
		for s := 0; s < tr.T(); s++ {
			got, err := splitBatches(tr, s, conns, 5)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := splitBatches(tr, s, conns, 5)
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("conns=%d slot %d: split is not deterministic", conns, s)
			}
			owner := map[int]int{}
			var flat []serve.Request
			for c, batches := range got {
				for _, b := range batches {
					if len(b) == 0 || len(b) > 5 {
						t.Fatalf("conns=%d: batch of %d reports", conns, len(b))
					}
					for _, r := range b {
						if o, seen := owner[r.SBS]; seen && o != c {
							t.Fatalf("SBS %d reports over connections %d and %d", r.SBS, o, c)
						}
						owner[r.SBS] = c
						flat = append(flat, r)
					}
				}
			}
			var want []serve.Request
			for n := 0; n < tr.N(); n++ {
				for _, r := range tr.Slot(s, n) {
					want = append(want, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
				}
			}
			if !reflect.DeepEqual(flat, want) {
				t.Fatalf("conns=%d slot %d: batches do not carry every report once, in trace order", conns, s)
			}
		}
	}
	if _, err := splitBatches(tr, 0, 5, 5); err == nil {
		t.Error("more connections than SBSs accepted")
	}
	if _, err := splitBatches(tr, 0, 1, 0); err == nil {
		t.Error("empty batches accepted")
	}
}

func TestAnalyzeSpansSelfTimeAndCoverage(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	recs := []obs.SpanRecord{
		{Name: "tick", ID: 1, Start: at(0), Duration: d(10)},
		{Name: "window_solve", ID: 2, Parent: 1, Start: at(1), Duration: d(8)},
		{Name: "solve", ID: 3, Parent: 2, Start: at(1), Duration: d(7)},
		// Two connections' ingests overlap: covered once, not twice.
		{Name: "ingest", ID: 4, Start: at(20), Duration: d(4)},
		{Name: "ingest", ID: 5, Start: at(22), Duration: d(4)},
	}
	st := analyzeSpans(recs, at(0), at(40))
	if st.self["tick"] != d(2) || st.self["window_solve"] != d(1) || st.self["solve"] != d(7) {
		t.Errorf("self times %v", st.self)
	}
	if st.under["window_solve"] != d(8) || st.under["solve"] != 0 {
		t.Errorf("time under tick %v", st.under)
	}
	if st.covered != d(16) {
		t.Errorf("covered %v, want 16ms", st.covered)
	}
}
