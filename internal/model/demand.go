package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Demand holds the mean request rates λ^t_{m_n,k} for every slot t, SBS n,
// user class m and content k. Storage is flat per (t, n) for cache locality
// in the solvers' inner loops.
type Demand struct {
	t, n    int
	classes []int
	k       int
	// data[t][n] is a row-major (class, content) matrix of length
	// classes[n]*k.
	data [][][]float64
	// checked records that a full CheckValues scan has passed. Set and
	// Map preserve validity (they panic on invalid writes), so a tensor
	// that passed once never needs rescanning. Atomic because instances
	// are validated from concurrent window solves.
	checked atomic.Bool
}

// NewDemand allocates an all-zero demand tensor for T slots, len(classes)
// SBSs with classes[n] user classes each, and k contents.
func NewDemand(t int, classes []int, k int) *Demand {
	d := &Demand{
		t:       t,
		n:       len(classes),
		classes: append([]int(nil), classes...),
		k:       k,
		data:    make([][][]float64, t),
	}
	for ti := range d.data {
		d.data[ti] = make([][]float64, d.n)
		for n := range d.data[ti] {
			d.data[ti][n] = make([]float64, classes[n]*k)
		}
	}
	return d
}

// T returns the number of slots covered by the demand tensor.
func (d *Demand) T() int { return d.t }

// N returns the number of SBSs covered by the demand tensor.
func (d *Demand) N() int { return d.n }

// K returns the number of contents covered by the demand tensor.
func (d *Demand) K() int { return d.k }

// Classes returns the per-SBS class counts. The returned slice is shared;
// callers must not modify it.
func (d *Demand) Classes() []int { return d.classes }

// At returns λ^t_{m_n,k}.
func (d *Demand) At(t, n, m, k int) float64 {
	return d.data[t][n][m*d.k+k]
}

// Set assigns λ^t_{m_n,k} = v. Rates must be non-negative and finite;
// violating values panic, as they indicate a generator bug rather than a
// runtime condition a caller could handle.
func (d *Demand) Set(t, n, m, k int, v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("model: demand rate %g at (t=%d n=%d m=%d k=%d) is not a finite non-negative number", v, t, n, m, k))
	}
	d.data[t][n][m*d.k+k] = v
}

// CopySlot writes the row-major (class, content) rate matrix of (t, n)
// into dst, growing it when needed, and returns it. The result never
// aliases internal storage.
func (d *Demand) CopySlot(dst []float64, t, n int) []float64 {
	row := d.data[t][n]
	if cap(dst) < len(row) {
		dst = make([]float64, len(row))
	}
	dst = dst[:len(row)]
	copy(dst, row)
	return dst
}

// ForEachActive calls fn for every coordinate with λ ≠ 0 at (t, n), in the
// order of a dense row scan: class-major, contents ascending.
func (d *Demand) ForEachActive(t, n int, fn func(m, k int, rate float64)) {
	row := d.data[t][n]
	for m := 0; m < d.classes[n]; m++ {
		base := m * d.k
		for j, v := range row[base : base+d.k] {
			if v != 0 {
				fn(m, j, v)
			}
		}
	}
}

// ActiveItems returns the sorted contents with any positive demand at
// (t, n). The slice is freshly allocated.
func (d *Demand) ActiveItems(t, n int) []int {
	row := d.data[t][n]
	var items []int
	for k := 0; k < d.k; k++ {
		for m := 0; m < d.classes[n]; m++ {
			if row[m*d.k+k] != 0 {
				items = append(items, k)
				break
			}
		}
	}
	return items
}

// SlotTotal returns Σ_{m,k} λ^t_{m,k} for SBS n at slot t: the aggregate
// request volume the SBS's users generate in that slot.
func (d *Demand) SlotTotal(t, n int) float64 {
	var sum float64
	for _, v := range d.data[t][n] {
		sum += v
	}
	return sum
}

// ContentTotal returns Σ_m λ^t_{m,k}: the aggregate demand for content k at
// SBS n in slot t, the quantity the paper's LRFU baseline ranks by.
func (d *Demand) ContentTotal(t, n, k int) float64 {
	var sum float64
	row := d.data[t][n]
	for m := 0; m < d.classes[n]; m++ {
		sum += row[m*d.k+k]
	}
	return sum
}

// Slice returns a deep copy of slots [from, to) as an independent dense
// Demand, so window solvers can perturb predictions without aliasing the
// ground truth.
func (d *Demand) Slice(from, to int) (DemandView, error) {
	if from < 0 || to > d.t || from >= to {
		return nil, fmt.Errorf("model: demand slice [%d, %d) outside [0, %d)", from, to, d.t)
	}
	out := NewDemand(to-from, d.classes, d.k)
	for t := from; t < to; t++ {
		for n := 0; n < d.n; n++ {
			copy(out.data[t-from][n], d.data[t][n])
		}
	}
	// A slice of a verified tensor is verified: Set/Map preserve validity.
	out.checked.Store(d.checked.Load())
	return out, nil
}

// Clone returns a deep copy of the whole tensor.
func (d *Demand) Clone() DemandView {
	out, err := d.Slice(0, d.t)
	if err != nil {
		panic("model: Clone: " + err.Error()) // unreachable: full range is valid
	}
	return out
}

// Map applies f to every rate and stores the result, returning d. It is the
// hook used to inject multiplicative prediction noise.
func (d *Demand) Map(f func(t, n, m, k int, v float64) float64) DemandView {
	for t := 0; t < d.t; t++ {
		for n := 0; n < d.n; n++ {
			row := d.data[t][n]
			for m := 0; m < d.classes[n]; m++ {
				for k := 0; k < d.k; k++ {
					v := f(t, n, m, k, row[m*d.k+k])
					if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						panic(fmt.Sprintf("model: Map produced invalid rate %g", v))
					}
					row[m*d.k+k] = v
				}
			}
		}
	}
	return d
}

// CheckValues verifies every rate is a finite non-negative number,
// returning a field-precise error for the first offender. Set and Map
// maintain this invariant themselves, but tensors filled by hand can
// smuggle NaN/Inf rates that historically only surfaced as solver
// misbehaviour deep in the primal-dual loop; Instance.Validate calls this so such tensors are
// rejected at construction instead. The scan is memoised: once a tensor
// passes it is never rescanned, so repeated validation (one per window
// solve) costs one atomic load.
func (d *Demand) CheckValues() error {
	if d.checked.Load() {
		return nil
	}
	for t := 0; t < d.t; t++ {
		for n := 0; n < d.n; n++ {
			row := d.data[t][n]
			for i, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("model: demand rate λ(t=%d, n=%d, m=%d, k=%d) = %g, want finite ≥ 0",
						t, n, i/d.k, i%d.k, v)
				}
			}
		}
	}
	d.checked.Store(true)
	return nil
}

// conforms reports whether the tensor's shape matches the instance.
func (d *Demand) conforms(in *Instance) error {
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
