package workload

import (
	"reflect"
	"testing"

	"edgecache/internal/model"
)

func sparseCfg() Config {
	cfg := PaperDefault().Workload
	cfg.Classes = []int{3, 2}
	cfg.K = 40
	cfg.T = 6
	cfg.Seed = 17
	return cfg
}

// TestNewDemandSparseFullTopKBitExact pins the compatibility guarantee of
// the functional-options redesign: WithSparse at topK ≥ K replays the
// legacy generator's RNG stream coordinate for coordinate, so the sparse
// backing holds bit-identical values to the dense tensor.
func TestNewDemandSparseFullTopKBitExact(t *testing.T) {
	cfg := sparseCfg()
	dense, err := NewDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dense.(*model.Demand); !ok {
		t.Fatalf("default NewDemand returned %T, want *model.Demand", dense)
	}
	sparse, err := NewDemand(cfg, WithSparse(cfg.K))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sparse.(*model.SparseDemand); !ok {
		t.Fatalf("WithSparse returned %T, want *model.SparseDemand", sparse)
	}
	for tt := 0; tt < cfg.T; tt++ {
		for n := range cfg.Classes {
			for m := 0; m < cfg.Classes[n]; m++ {
				for k := 0; k < cfg.K; k++ {
					if got, want := sparse.At(tt, n, m, k), dense.At(tt, n, m, k); got != want {
						t.Fatalf("At(%d,%d,%d,%d): sparse %g dense %g", tt, n, m, k, got, want)
					}
				}
			}
		}
	}
}

func TestWithSparseTruncation(t *testing.T) {
	cfg := sparseCfg()
	const topK = 5
	d, err := NewDemand(cfg, WithSparse(topK))
	if err != nil {
		t.Fatal(err)
	}
	sp := d.(*model.SparseDemand)
	for tt := 0; tt < cfg.T; tt++ {
		for n := range cfg.Classes {
			if got := len(sp.ActiveItems(tt, n)); got > topK {
				t.Fatalf("slot (%d,%d) has %d active items, cap %d", tt, n, got, topK)
			}
		}
	}
	if sp.NNZ() == 0 {
		t.Fatal("truncated workload is empty")
	}

	// Determinism: the same options give the same tensor.
	d2, err := NewDemand(cfg, WithSparse(topK))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(model.Densify(d), model.Densify(d2)) {
		t.Fatal("truncated generation is not deterministic")
	}

	// WithSeed overrides the config's seed.
	d3, err := NewDemand(cfg, WithSparse(topK), WithSeed(cfg.Seed+1))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(model.Densify(d), model.Densify(d3)) {
		t.Fatal("WithSeed did not change the stream")
	}
}

func TestWithZipfSkew(t *testing.T) {
	cfg := sparseCfg()
	flat, err := NewDemand(cfg, WithZipfSkew(0.2))
	if err != nil {
		t.Fatal(err)
	}
	steep, err := NewDemand(cfg, WithZipfSkew(2.5))
	if err != nil {
		t.Fatal(err)
	}
	headShare := func(d model.DemandView) float64 {
		var head, total float64
		for tt := 0; tt < cfg.T; tt++ {
			for n := range cfg.Classes {
				d.ForEachActive(tt, n, func(m, k int, rate float64) {
					total += rate
					if k < cfg.K/10 {
						head += rate
					}
				})
			}
		}
		return head / total
	}
	if headShare(steep) <= headShare(flat) {
		t.Fatalf("steeper Zipf did not concentrate demand: steep %.3f flat %.3f",
			headShare(steep), headShare(flat))
	}
}

// TestBuildInstanceWithSparse exercises the instance-level entry: the
// built instance must validate and carry a sparse demand view.
func TestBuildInstanceWithSparse(t *testing.T) {
	icfg := PaperDefault()
	icfg.N = 2
	icfg.K = 50
	icfg.T = 4
	icfg.ClassesPerSBS = 3
	in, err := BuildInstanceWith(icfg, WithSparse(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Demand.(*model.SparseDemand); !ok {
		t.Fatalf("instance demand is %T, want *model.SparseDemand", in.Demand)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < in.N; n++ {
		if c := in.Candidates(n); len(c) == 0 || len(c) >= in.K {
			t.Fatalf("SBS %d candidate set has %d items of %d — truncation had no effect", n, len(c), in.K)
		}
	}
}
