package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"edgecache/internal/serve"
	"edgecache/internal/trace"
)

// minTail is the number of samples a reported percentile must have beyond
// it; a tail percentile with fewer is noise, not a measurement.
const minTail = 10

// tailPercentile returns the highest of the candidate percentiles (in
// ascending order, e.g. 90, 99) that leaves at least minTail of n samples
// beyond it, and false when none does.
func tailPercentile(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if beyond := n - int(math.Ceil(p/100*float64(n))); beyond >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank p-th percentile of samples (which it
// sorts in place); zero for no samples.
func percentile[T cmp.Ordered](samples []T, p float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

func median[T cmp.Ordered](samples []T) T { return percentile(samples, 50) }

func sum(samples []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range samples {
		s += d
	}
	return s
}

// deciles lists the 10th, 20th, …, 90th percentiles of samples in ms,
// to show the shape of a latency distribution.
func deciles(samples []time.Duration) []float64 {
	out := make([]float64, 0, 9)
	for p := 10.0; p < 100; p += 10 {
		out = append(out, ms(percentile(samples, p)))
	}
	return out
}

// validName reports whether s is a usable metric name: it starts with a
// letter or digit and is at most 64 letters, digits, '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || r != '_' && r != '.' && r != '-') {
			return false
		}
	}
	return true
}

// splitBatches deals one slot's reports to the edge connections and cuts
// each connection's stream into batches of at most size reports. The SBSs
// are divided into conns contiguous blocks (connection c owns SBSs
// [c·N/conns, (c+1)·N/conns)), so every SBS reports over exactly one
// connection and the split depends only on the trace.
func splitBatches(tr *trace.Trace, slot, conns, size int) ([][][]serve.Request, error) {
	if conns < 1 || conns > tr.N() || size < 1 {
		return nil, fmt.Errorf("split %d SBSs over %d connections in batches of %d", tr.N(), conns, size)
	}
	out := make([][][]serve.Request, conns)
	for c := range out {
		var stream []serve.Request
		for n := c * tr.N() / conns; n < (c+1)*tr.N()/conns; n++ {
			for _, r := range tr.Slot(slot, n) {
				stream = append(stream, serve.Request{SBS: r.SBS, Class: r.Class, Content: r.Content})
			}
		}
		for len(stream) > 0 {
			k := min(size, len(stream))
			out[c] = append(out[c], stream[:k:k])
			stream = stream[k:]
		}
	}
	return out, nil
}
