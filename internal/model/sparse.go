package model

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// SparseDemand stores the λ^t_{m_n,k} tensor in CSR style: per (t, n) a
// sorted list of the items with stored rates plus a per-class rate column
// for each listed item. Memory and iteration cost scale with the number of
// active (item, slot) pairs rather than with the catalogue size K, which
// makes the web-scale operating point (N ≈ 1000 SBSs, K ≈ 1e6 items,
// Zipf-concentrated demand) affordable: a slot plane costs O(M·topK)
// instead of O(M·K).
//
// SparseDemand implements DemandView. Coordinates that were never Set are
// structurally zero: At returns 0 for them, ForEachActive skips them, and
// Map never visits them (so Map transforms must send 0 to 0 — true for the
// multiplicative noise and corruption hooks the predictor stack applies,
// with the documented exception of the fault package's "freeze" mode,
// which resurrects rates and therefore requires a dense view).
type SparseDemand struct {
	t, n    int
	classes []int
	k       int
	// rows[t][n] lists the stored items of that plane.
	rows [][]sparseRow
	// checked memoises CheckValues, exactly as in the dense tensor.
	checked atomic.Bool
}

// sparseRow is one (t, n) plane: items is the sorted list of stored
// content ids and rates[m][i] the rate of class m for content items[i].
type sparseRow struct {
	items []int
	rates [][]float64
}

// NewSparseDemand allocates an empty sparse demand tensor for t slots,
// len(classes) SBSs and k contents. Rates are added with Set; appending in
// ascending content order per plane is O(1) amortised.
func NewSparseDemand(t int, classes []int, k int) *SparseDemand {
	d := &SparseDemand{
		t:       t,
		n:       len(classes),
		classes: append([]int(nil), classes...),
		k:       k,
		rows:    make([][]sparseRow, t),
	}
	for ti := range d.rows {
		d.rows[ti] = make([]sparseRow, d.n)
		for n := range d.rows[ti] {
			d.rows[ti][n].rates = make([][]float64, classes[n])
		}
	}
	return d
}

// T returns the number of slots covered by the demand tensor.
func (d *SparseDemand) T() int { return d.t }

// N returns the number of SBSs covered by the demand tensor.
func (d *SparseDemand) N() int { return d.n }

// K returns the number of contents covered by the demand tensor.
func (d *SparseDemand) K() int { return d.k }

// Classes returns the per-SBS class counts. The returned slice is shared;
// callers must not modify it.
func (d *SparseDemand) Classes() []int { return d.classes }

// NNZ returns the number of stored (t, n, item) triples — the footprint
// the sparse representation actually pays for (each triple carries one
// rate per class).
func (d *SparseDemand) NNZ() int {
	var nnz int
	for t := range d.rows {
		for n := range d.rows[t] {
			nnz += len(d.rows[t][n].items)
		}
	}
	return nnz
}

// find returns the position of item k in r.items and whether it is stored.
func (r *sparseRow) find(k int) (int, bool) {
	i := sort.SearchInts(r.items, k)
	return i, i < len(r.items) && r.items[i] == k
}

// At returns λ^t_{m_n,k}; zero for unstored coordinates.
func (d *SparseDemand) At(t, n, m, k int) float64 {
	r := &d.rows[t][n]
	if i, ok := r.find(k); ok {
		return r.rates[m][i]
	}
	return 0
}

// Set assigns λ^t_{m_n,k} = v, inserting item k into the plane's item list
// when absent. Rates must be non-negative and finite; violating values
// panic. Setting an unstored coordinate to 0 is a no-op, so generators can
// Set unconditionally without densifying the structure.
func (d *SparseDemand) Set(t, n, m, k int, v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("model: demand rate %g at (t=%d n=%d m=%d k=%d) is not a finite non-negative number", v, t, n, m, k))
	}
	if k < 0 || k >= d.k {
		// The dense tensor faults on an out-of-range content naturally;
		// the sparse map would silently grow a phantom item.
		panic(fmt.Sprintf("model: content %d outside [0, %d)", k, d.k))
	}
	r := &d.rows[t][n]
	i, ok := r.find(k)
	if !ok {
		if v == 0 {
			return
		}
		r.items = append(r.items, 0)
		copy(r.items[i+1:], r.items[i:])
		r.items[i] = k
		for m := range r.rates {
			col := append(r.rates[m], 0)
			copy(col[i+1:], col[i:])
			col[i] = 0
			r.rates[m] = col
		}
	}
	r.rates[m][i] = v
}

// CopySlot writes the dense row-major (class, content) rate matrix of
// (t, n) into dst, growing it when needed, and returns it.
func (d *SparseDemand) CopySlot(dst []float64, t, n int) []float64 {
	dim := d.classes[n] * d.k
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	for i := range dst {
		dst[i] = 0
	}
	r := &d.rows[t][n]
	for m, col := range r.rates {
		base := m * d.k
		for i, k := range r.items {
			dst[base+k] = col[i]
		}
	}
	return dst
}

// SlotTotal returns Σ_{m,k} λ^t_{m,k} for SBS n at slot t, accumulating in
// the dense scan order (class-major, contents ascending) so the sum is bit
// identical to the dense tensor's.
func (d *SparseDemand) SlotTotal(t, n int) float64 {
	var sum float64
	r := &d.rows[t][n]
	for _, col := range r.rates {
		for _, v := range col {
			sum += v
		}
	}
	return sum
}

// ContentTotal returns Σ_m λ^t_{m,k}.
func (d *SparseDemand) ContentTotal(t, n, k int) float64 {
	r := &d.rows[t][n]
	i, ok := r.find(k)
	if !ok {
		return 0
	}
	var sum float64
	for _, col := range r.rates {
		sum += col[i]
	}
	return sum
}

// ForEachActive calls fn for every stored coordinate with λ ≠ 0 at (t, n),
// class-major with contents ascending — the dense scan order.
func (d *SparseDemand) ForEachActive(t, n int, fn func(m, k int, rate float64)) {
	r := &d.rows[t][n]
	for m, col := range r.rates {
		for i, v := range col {
			if v != 0 {
				fn(m, r.items[i], v)
			}
		}
	}
}

// ActiveItems returns the sorted contents with any positive demand at
// (t, n). The slice is freshly allocated.
func (d *SparseDemand) ActiveItems(t, n int) []int {
	r := &d.rows[t][n]
	var items []int
	for i, k := range r.items {
		for _, col := range r.rates {
			if col[i] != 0 {
				items = append(items, k)
				break
			}
		}
	}
	return items
}

// Slice returns a deep copy of slots [from, to) as an independent
// SparseDemand — the backing is preserved, not densified.
func (d *SparseDemand) Slice(from, to int) (DemandView, error) {
	if from < 0 || to > d.t || from >= to {
		return nil, fmt.Errorf("model: demand slice [%d, %d) outside [0, %d)", from, to, d.t)
	}
	out := NewSparseDemand(to-from, d.classes, d.k)
	for t := from; t < to; t++ {
		for n := 0; n < d.n; n++ {
			src := &d.rows[t][n]
			dst := &out.rows[t-from][n]
			dst.items = append([]int(nil), src.items...)
			for m := range src.rates {
				dst.rates[m] = append([]float64(nil), src.rates[m]...)
			}
		}
	}
	out.checked.Store(d.checked.Load())
	return out, nil
}

// Clone returns a deep copy of the whole tensor, sparse-backed.
func (d *SparseDemand) Clone() DemandView {
	out, err := d.Slice(0, d.t)
	if err != nil {
		panic("model: Clone: " + err.Error()) // unreachable: full range is valid
	}
	return out
}

// Map applies f to every stored rate and keeps the result, returning d.
// Unstored coordinates are structurally zero and never visited, so f must
// map 0 to 0 for the transform to mean the same thing it would on a dense
// tensor.
func (d *SparseDemand) Map(f func(t, n, m, k int, v float64) float64) DemandView {
	for t := 0; t < d.t; t++ {
		for n := 0; n < d.n; n++ {
			r := &d.rows[t][n]
			for m, col := range r.rates {
				for i, v := range col {
					nv := f(t, n, m, r.items[i], v)
					if nv < 0 || math.IsNaN(nv) || math.IsInf(nv, 0) {
						panic(fmt.Sprintf("model: Map produced invalid rate %g", nv))
					}
					col[i] = nv
				}
			}
		}
	}
	return d
}

// CheckValues verifies every stored rate is a finite non-negative number,
// memoising success exactly like the dense tensor.
func (d *SparseDemand) CheckValues() error {
	if d.checked.Load() {
		return nil
	}
	for t := 0; t < d.t; t++ {
		for n := 0; n < d.n; n++ {
			r := &d.rows[t][n]
			for m, col := range r.rates {
				for i, v := range col {
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("model: demand rate λ(t=%d, n=%d, m=%d, k=%d) = %g, want finite ≥ 0",
							t, n, m, r.items[i], v)
					}
				}
			}
		}
	}
	d.checked.Store(true)
	return nil
}

// conforms reports whether the tensor's shape matches the instance.
func (d *SparseDemand) conforms(in *Instance) error {
	if d.t != in.T {
		return fmt.Errorf("model: demand has %d slots, instance has %d", d.t, in.T)
	}
	if d.n != in.N {
		return fmt.Errorf("model: demand has %d SBSs, instance has %d", d.n, in.N)
	}
	if d.k != in.K {
		return fmt.Errorf("model: demand has %d contents, instance has %d", d.k, in.K)
	}
	for n := 0; n < in.N; n++ {
		if d.classes[n] != in.Classes[n] {
			return fmt.Errorf("model: demand has %d classes at SBS %d, instance has %d", d.classes[n], n, in.Classes[n])
		}
	}
	return nil
}
