package model

// DemandView is the demand-access contract every solver layer consumes.
// It abstracts over the storage of the λ^t_{m_n,k} tensor so that the same
// algorithms run on the dense tensor (Demand, the default — every rate is
// materialised) and on the CSR-style SparseDemand, whose per-(t, n) item
// lists make web-scale catalogues (K in the millions) affordable.
//
// The iteration methods are the preferred access path:
//
//   - ForEachActive visits exactly the coordinates with λ > 0, in the same
//     (class-major, then content-ascending) order a dense row scan would,
//     so accumulations over active coordinates are bit-identical to dense
//     accumulations — skipped zero terms contribute an exact +0.0.
//   - ActiveItems lists the contents with any positive demand at (t, n),
//     the raw material for candidate sets (Instance.Candidates).
//
// Point reads go through At, and CopySlot serves the rare caller that
// needs a dense row in its own memory. Implementations live in this
// package only (the interface is sealed by the unexported conforms method)
// so the solver layers can rely on the invariants documented here.
type DemandView interface {
	// T, N, K and Classes report the tensor's shape. Classes returns a
	// shared slice that callers must not modify.
	T() int
	N() int
	K() int
	Classes() []int

	// At returns λ^t_{m_n,k}; zero for coordinates the backing does not
	// store.
	At(t, n, m, k int) float64

	// Set assigns λ^t_{m_n,k} = v. Rates must be finite and non-negative;
	// violating values panic (they indicate a generator bug, not a runtime
	// condition a caller could handle).
	Set(t, n, m, k int, v float64)

	// CopySlot writes the dense row-major (class, content) rate matrix of
	// (t, n) into dst, growing it when needed, and returns it. The result
	// never aliases internal storage.
	CopySlot(dst []float64, t, n int) []float64

	// SlotTotal returns Σ_{m,k} λ^t_{m,k}: the aggregate request volume of
	// SBS n at slot t.
	SlotTotal(t, n int) float64

	// ContentTotal returns Σ_m λ^t_{m,k}: the aggregate demand for content
	// k at SBS n in slot t (the quantity the LRFU baseline ranks by).
	ContentTotal(t, n, k int) float64

	// ForEachActive calls fn for every coordinate with λ ≠ 0 at (t, n), in
	// class-major order with contents ascending within a class — the exact
	// order of a dense row scan, so sums over the visited terms match
	// dense sums bit for bit.
	ForEachActive(t, n int, fn func(m, k int, rate float64))

	// ActiveItems returns the sorted contents with any positive demand at
	// (t, n). The returned slice is freshly allocated.
	ActiveItems(t, n int) []int

	// Slice returns a deep copy of slots [from, to) with the same backing,
	// so window solvers can perturb predictions without aliasing the
	// ground truth — and without densifying a sparse tensor.
	Slice(from, to int) (DemandView, error)

	// Clone returns a deep copy of the whole tensor with the same backing.
	Clone() DemandView

	// Map applies f to rates and stores the result, returning the view.
	// Dense backings visit every coordinate; sparse backings visit only
	// the stored entries, so f must map 0 to 0 (true for the
	// multiplicative transforms the predictor stack applies).
	Map(f func(t, n, m, k int, v float64) float64) DemandView

	// CheckValues verifies every stored rate is finite and non-negative,
	// memoising success.
	CheckValues() error

	// conforms checks the view's shape against an instance. Unexported on
	// purpose: it seals the interface to this package's implementations.
	conforms(in *Instance) error
}

// Densify materialises any view as an independent dense Demand tensor.
// Useful for differential tests (dense vs sparse backings of the same
// workload) and for tooling that genuinely needs dense rows.
func Densify(v DemandView) *Demand {
	out := NewDemand(v.T(), v.Classes(), v.K())
	for t := 0; t < out.t; t++ {
		for n := 0; n < out.n; n++ {
			row := out.data[t][n]
			v.ForEachActive(t, n, func(m, k int, rate float64) {
				row[m*out.k+k] = rate
			})
		}
	}
	if v.CheckValues() == nil {
		out.checked.Store(true)
	}
	return out
}
