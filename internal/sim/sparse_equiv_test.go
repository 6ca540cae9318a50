package sim

import (
	"context"
	"reflect"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// equivSetup builds one sparse-backed instance and its dense twin holding
// bit-identical demand values, with predictors sharing the same noise
// stream (the noise is a pure function of coordinates, so the backing
// cannot leak into it).
func equivSetup(t *testing.T) (sparse, dense *model.Instance, predS, predD *workload.Predictor) {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 8
	cfg.K = 20
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 5
	inS, err := workload.BuildInstanceWith(cfg, workload.WithSparse(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inS.Demand.(*model.SparseDemand); !ok {
		t.Fatalf("sparse instance carries %T", inS.Demand)
	}
	inDCopy := *inS
	inDCopy.Demand = model.Densify(inS.Demand)
	inD := &inDCopy
	pS, err := workload.NewPredictor(inS.Demand, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pD, err := workload.NewPredictor(inD.Demand, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return inS, inD, pS, pD
}

// TestSimulateDenseSparseEquivalence is the differential acceptance test
// of the DemandView redesign: an end-to-end simulation must commit
// DeepEqual-identical trajectories whether the demand sits in the dense
// tensor or the sparse representation. Every solver layer is on the line
// here — candidate pruning in P1, the compact active-coordinate P2
// planes, the window slicing of the online controllers and the
// ForEachActive cost accumulation — because a single reordered float64
// operation would surface as a bitwise diff.
func TestSimulateDenseSparseEquivalence(t *testing.T) {
	inS, inD, predS, predD := equivSetup(t)
	policies := map[string]Policy{
		"offline": Offline(core.Options{MaxIter: 25}),
		"rhc":     Online(online.RHC(4)),
		"chc":     Online(online.CHC(4, 2)),
	}
	for name, pol := range policies {
		t.Run(name, func(t *testing.T) {
			rs, err := RunWith(context.Background(), inS, predS, pol, Config{})
			if err != nil {
				t.Fatal(err)
			}
			rd, err := RunWith(context.Background(), inD, predD, pol, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs.Trajectory, rd.Trajectory) {
				t.Fatal("sparse and dense runs committed different trajectories")
			}
			if rs.Cost != rd.Cost {
				t.Fatalf("cost breakdowns diverge: sparse %+v dense %+v", rs.Cost, rd.Cost)
			}
			if !reflect.DeepEqual(rs.PerSlot, rd.PerSlot) {
				t.Fatal("per-slot metrics diverge")
			}
		})
	}
}

// TestSimulateDenseSparseEquivalenceFaulted repeats the differential run
// under instance faults (an outage plus a bandwidth degradation). These
// act on capacities and bandwidths — never on demand — so they must
// preserve the equivalence; demand-corrupting fault modes that resurrect
// zero-rate coordinates (freeze) are deliberately outside the sparse
// contract (see model.DemandView.Map) and outside this test.
func TestSimulateDenseSparseEquivalenceFaulted(t *testing.T) {
	inS, inD, predS, predD := equivSetup(t)
	mkSchedule := func() *fault.Schedule {
		return &fault.Schedule{Injectors: []fault.Injector{
			fault.Outage{SBS: 0, From: 2, To: 5},
			fault.BandwidthFactor{SBS: 1, From: 4, To: 8, Factor: 0.5},
		}}
	}
	cfgRun := Config{Audit: true}
	cfgRun.Faults = mkSchedule()
	rs, err := RunWith(context.Background(), inS, predS, Online(online.RHC(4)), cfgRun)
	if err != nil {
		t.Fatal(err)
	}
	cfgRun.Faults = mkSchedule()
	rd, err := RunWith(context.Background(), inD, predD, Online(online.RHC(4)), cfgRun)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Audit.Err(); err != nil {
		t.Fatalf("sparse faulted run failed audit: %v", err)
	}
	if err := rd.Audit.Err(); err != nil {
		t.Fatalf("dense faulted run failed audit: %v", err)
	}
	if !reflect.DeepEqual(rs.Trajectory, rd.Trajectory) {
		t.Fatal("faulted sparse and dense runs committed different trajectories")
	}
	if rs.Cost != rd.Cost {
		t.Fatalf("faulted cost breakdowns diverge: sparse %+v dense %+v", rs.Cost, rd.Cost)
	}
}
