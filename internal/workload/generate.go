package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"edgecache/internal/model"
)

// Config describes one synthetic workload in the style of §V-B: each user
// class m has a base density d_m ~ U[0, MaxDensity]; the rate for content k
// is d_m times the Zipf–Mandelbrot mass of k's current popularity rank,
// multiplied by a per-(t,m,k) jitter drawn from U[1−Jitter, 1+Jitter].
type Config struct {
	// Classes is the number of user classes per SBS.
	Classes []int
	// K is the catalogue size and T the horizon.
	K, T int
	// Zipf is the popularity model (paper: α = 0.8, q = 30).
	Zipf ZipfMandelbrot
	// MaxDensity scales the per-class base densities d_m ~ U[0, MaxDensity].
	MaxDensity float64
	// Jitter is the slot-to-slot multiplicative demand variation σ:
	// every rate is scaled by U[1−σ, 1+σ]. This is the temporal variability
	// that makes caching a genuinely online problem; 0 gives a stationary
	// workload.
	Jitter float64
	// DriftPeriod, when positive, rotates content popularity ranks by one
	// position every DriftPeriod slots (content k holds rank
	// (k + t/DriftPeriod) mod K). It models the slow popularity churn of
	// video catalogues; 0 disables drift.
	DriftPeriod int
	// DiurnalAmplitude a ∈ [0, 1) modulates the total demand sinusoidally
	// over DiurnalPeriod slots: rates scale by 1 + a·sin(2πt/period),
	// modelling the day/night cycle the paper's introduction mentions
	// ("temporal variability of network traffic provides the opportunity
	// to perform caching updates during the periods with low traffic").
	DiurnalAmplitude float64
	// DiurnalPeriod is the cycle length in slots (required when the
	// amplitude is positive).
	DiurnalPeriod int
	// Seed makes generation deterministic.
	Seed uint64
}

func (c Config) validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("workload: no SBS classes configured")
	}
	for n, m := range c.Classes {
		if m <= 0 {
			return fmt.Errorf("workload: Classes[%d] = %d, want > 0", n, m)
		}
	}
	if c.K <= 0 || c.T <= 0 {
		return fmt.Errorf("workload: K = %d, T = %d, want > 0", c.K, c.T)
	}
	if c.MaxDensity < 0 {
		return fmt.Errorf("workload: MaxDensity = %g, want ≥ 0", c.MaxDensity)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("workload: Jitter = %g, want [0, 1)", c.Jitter)
	}
	if c.DriftPeriod < 0 {
		return fmt.Errorf("workload: DriftPeriod = %d, want ≥ 0", c.DriftPeriod)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("workload: DiurnalAmplitude = %g, want [0, 1)", c.DiurnalAmplitude)
	}
	if c.DiurnalAmplitude > 0 && c.DiurnalPeriod <= 0 {
		return fmt.Errorf("workload: DiurnalAmplitude set but DiurnalPeriod = %d", c.DiurnalPeriod)
	}
	return nil
}

// Option customises NewDemand beyond the Config fields.
type Option func(*genOptions)

type genOptions struct {
	sparse    bool
	topK      int
	zipfAlpha float64
	hasSeed   bool
	seed      uint64
}

// WithSparse selects the CSR-style sparse backing (model.SparseDemand) and
// truncates each slot's popularity distribution to its top topK ranks —
// the Zipf tail beyond them is treated as structurally zero. topK ≤ 0 or
// ≥ K keeps the full catalogue active (still sparse-backed). With drift
// the active item set rotates with the ranks, so the union over a horizon
// grows beyond topK; that union is what Instance.Candidates reports.
func WithSparse(topK int) Option {
	return func(o *genOptions) {
		o.sparse = true
		o.topK = topK
	}
}

// WithZipfSkew overrides the Zipf–Mandelbrot skew α of the config.
func WithZipfSkew(alpha float64) Option {
	return func(o *genOptions) { o.zipfAlpha = alpha }
}

// WithSeed overrides the config's workload seed.
func WithSeed(seed uint64) Option {
	return func(o *genOptions) {
		o.hasSeed = true
		o.seed = seed
	}
}

// NewDemand synthesises the ground-truth demand for the config, behind the
// DemandView contract. Without options the backing is the dense
// *model.Demand tensor. With WithSparse the tensor is CSR-backed and only
// the active top-K ranks per slot are visited and stored, so generation
// costs O(T·N·M·topK) instead of O(T·N·M·K); the jitter stream then
// covers active coordinates only, which defines a new (equally
// deterministic) workload for a given seed.
func NewDemand(cfg Config, opts ...Option) (model.DemandView, error) {
	var o genOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.zipfAlpha > 0 {
		cfg.Zipf.Alpha = o.zipfAlpha
	}
	if o.hasSeed {
		cfg.Seed = o.seed
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Zipf.K == 0 {
		cfg.Zipf.K = cfg.K
	}
	if cfg.Zipf.K != cfg.K {
		return nil, fmt.Errorf("workload: zipf catalogue %d != K %d", cfg.Zipf.K, cfg.K)
	}
	weights, err := cfg.Zipf.Weights()
	if err != nil {
		return nil, err
	}

	topK := cfg.K
	if o.sparse && o.topK > 0 && o.topK < cfg.K {
		topK = o.topK
	}
	var d model.DemandView
	if o.sparse {
		d = model.NewSparseDemand(cfg.T, cfg.Classes, cfg.K)
	} else {
		d = model.NewDemand(cfg.T, cfg.Classes, cfg.K)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	emit := func(t, n, m, k, rank int, density, diurnal float64) {
		rate := density * weights[rank] * diurnal
		if cfg.Jitter > 0 {
			rate *= 1 + cfg.Jitter*(2*rng.Float64()-1)
		}
		d.Set(t, n, m, k, rate)
	}
	for n, classes := range cfg.Classes {
		density := make([]float64, classes)
		for m := range density {
			density[m] = rng.Float64() * cfg.MaxDensity
		}
		for t := 0; t < cfg.T; t++ {
			diurnal := 1.0
			if cfg.DiurnalAmplitude > 0 {
				diurnal = 1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*float64(t)/float64(cfg.DiurnalPeriod))
			}
			shift := 0
			if cfg.DriftPeriod > 0 {
				shift = (t / cfg.DriftPeriod) % cfg.K
			}
			for m := 0; m < classes; m++ {
				if topK == cfg.K {
					// Full catalogue: identical loop (and RNG stream) to the
					// legacy dense generator.
					for k := 0; k < cfg.K; k++ {
						rank := k
						if cfg.DriftPeriod > 0 {
							rank = (k + shift) % cfg.K
						}
						emit(t, n, m, k, rank, density[m], diurnal)
					}
					continue
				}
				// Truncated catalogue: ranks [0, topK) live at contents
				// k = (rank − shift) mod K, a cyclic interval. Visit them in
				// ascending content order so sparse rows append in O(1).
				lo := (cfg.K - shift) % cfg.K
				if lo+topK <= cfg.K {
					for k := lo; k < lo+topK; k++ {
						emit(t, n, m, k, (k+shift)%cfg.K, density[m], diurnal)
					}
				} else {
					for k := 0; k < lo+topK-cfg.K; k++ {
						emit(t, n, m, k, (k+shift)%cfg.K, density[m], diurnal)
					}
					for k := lo; k < cfg.K; k++ {
						emit(t, n, m, k, (k+shift)%cfg.K, density[m], diurnal)
					}
				}
			}
		}
	}
	return d, nil
}

// InstanceConfig assembles a complete problem instance around a workload:
// homogeneous SBS parameters plus per-class BS weights ω ~ U[0, 1] (the
// paper's "normalized distance to the BS") and ŵ = OmegaSBSRatio·ω.
type InstanceConfig struct {
	// N is the number of SBSs; ClassesPerSBS the user classes at each.
	N, ClassesPerSBS int
	// K is the catalogue size, T the horizon.
	K, T int
	// CacheCap and Bandwidth are C_n and B_n, identical across SBSs.
	CacheCap int
	// Bandwidth is the per-slot transmission budget of each SBS.
	Bandwidth float64
	// Beta is the cache replacement cost β.
	Beta float64
	// OmegaSBSRatio sets ŵ = ratio·ω (paper: 0 — SBS operating cost
	// negligible; footnote suggests ≈ 0.01 for a 100× distance ratio).
	OmegaSBSRatio float64
	// Workload configures demand generation. Classes, K and T are filled
	// from this struct when zero.
	Workload Config
	// Seed drives both ω sampling and workload generation.
	Seed uint64
}

// PaperDefault returns the §V-B simulation setup: N = 1 SBS, K = 30
// contents, 30 user classes, T = 100 slots, C = 5, B = 30, β = 100,
// Zipf–Mandelbrot(α = 0.8, q = 30), ŵ = 0.
//
// One calibration applies (documented in DESIGN.md §3): the paper's
// "request density picked from [0, 100]" leaves the absolute demand scale
// underdetermined, so MaxDensity is set to 4.0, which puts the aggregate
// demand near 2× the SBS bandwidth — the regime where the paper's
// bandwidth sweep (Fig. 4) shows both a binding and a saturated side.
func PaperDefault() InstanceConfig {
	return InstanceConfig{
		N:             1,
		ClassesPerSBS: 30,
		K:             30,
		T:             100,
		CacheCap:      5,
		Bandwidth:     30,
		Beta:          100,
		OmegaSBSRatio: 0,
		Workload: Config{
			// Zipf.K is left 0 and auto-filled from the instance's K so
			// that sweeps overriding the catalogue size stay consistent.
			Zipf:       ZipfMandelbrot{Alpha: 0.8, Q: 30},
			MaxDensity: 4.0,
			Jitter:     0.4,
		},
		Seed: 1,
	}
}

// BuildInstance generates a fully populated, validated model.Instance with
// the default dense demand backing.
func BuildInstance(cfg InstanceConfig) (*model.Instance, error) {
	return BuildInstanceWith(cfg)
}

// BuildInstanceWith is BuildInstance with demand-generation options: pass
// WithSparse(topK) for a CSR-backed web-scale workload, WithZipfSkew or
// WithSeed to override the popularity skew or workload seed. No options
// reproduces BuildInstance exactly.
func BuildInstanceWith(cfg InstanceConfig, opts ...Option) (*model.Instance, error) {
	if cfg.N <= 0 || cfg.ClassesPerSBS <= 0 {
		return nil, fmt.Errorf("workload: N = %d, ClassesPerSBS = %d, want > 0", cfg.N, cfg.ClassesPerSBS)
	}
	classes := make([]int, cfg.N)
	for n := range classes {
		classes[n] = cfg.ClassesPerSBS
	}
	w := cfg.Workload
	if w.Classes == nil {
		w.Classes = classes
	}
	if w.K == 0 {
		w.K = cfg.K
	}
	if w.T == 0 {
		w.T = cfg.T
	}
	if w.Seed == 0 {
		w.Seed = cfg.Seed
	}
	demand, err := NewDemand(w, opts...)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x2545f4914f6cdd1d))
	omegaBS := make([][]float64, cfg.N)
	omegaSBS := make([][]float64, cfg.N)
	capacities := make([]int, cfg.N)
	bandwidths := make([]float64, cfg.N)
	betas := make([]float64, cfg.N)
	for n := 0; n < cfg.N; n++ {
		omegaBS[n] = make([]float64, cfg.ClassesPerSBS)
		omegaSBS[n] = make([]float64, cfg.ClassesPerSBS)
		for m := range omegaBS[n] {
			omegaBS[n][m] = rng.Float64()
			omegaSBS[n][m] = cfg.OmegaSBSRatio * omegaBS[n][m]
		}
		capacities[n] = cfg.CacheCap
		bandwidths[n] = cfg.Bandwidth
		betas[n] = cfg.Beta
	}

	in := &model.Instance{
		N:         cfg.N,
		K:         cfg.K,
		T:         cfg.T,
		Classes:   classes,
		CacheCap:  capacities,
		Bandwidth: bandwidths,
		OmegaBS:   omegaBS,
		OmegaSBS:  omegaSBS,
		Beta:      betas,
		Demand:    demand,
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("workload: built instance invalid: %w", err)
	}
	return in, nil
}
