package sim

import (
	"context"
	"reflect"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/online"
)

// incrementalPolicyPairs enumerates (delta-aware, from-scratch) policy
// pairs that must simulate identically: the same controller with the
// incremental machinery on versus ablated (core.Options.DisableIncremental).
func incrementalPolicyPairs() map[string][2]Policy {
	pairs := map[string][2]Policy{
		"offline": {
			Offline(core.Options{MaxIter: 25}),
			Offline(core.Options{MaxIter: 25, DisableIncremental: true}),
		},
	}
	for name, cfg := range map[string]online.Config{
		"rhc": online.RHC(4),
		"chc": online.CHC(4, 2),
	} {
		ref := cfg
		ref.Core.DisableIncremental = true
		pairs[name] = [2]Policy{Online(cfg), Online(ref)}
	}
	return pairs
}

// TestSimulateIncrementalEquivalence is the differential acceptance test
// of the delta-aware re-solve machinery: end-to-end simulations must
// commit DeepEqual-identical trajectories with the incremental paths on
// or ablated, on both dense and sparse demand backings. Every delta layer
// is on the line — the P1 dirty-row retargeting and SBS skips, the P2
// fixed-point slot skips, the μ-row change tracking in the dual loop and
// the cross-window coefficient rotation — because a single stale or
// reordered float64 would surface as a bitwise diff.
func TestSimulateIncrementalEquivalence(t *testing.T) {
	inS, inD, predS, predD := equivSetup(t)
	for name, pair := range incrementalPolicyPairs() {
		t.Run(name, func(t *testing.T) {
			for backing, run := range map[string]func(Policy) (*Result, error){
				"sparse": func(p Policy) (*Result, error) { return Run(context.Background(), inS, predS, p) },
				"dense":  func(p Policy) (*Result, error) { return Run(context.Background(), inD, predD, p) },
			} {
				inc, err := run(pair[0])
				if err != nil {
					t.Fatalf("%s incremental run: %v", backing, err)
				}
				ref, err := run(pair[1])
				if err != nil {
					t.Fatalf("%s from-scratch run: %v", backing, err)
				}
				if !reflect.DeepEqual(inc.Trajectory, ref.Trajectory) {
					t.Fatalf("%s: incremental and from-scratch runs committed different trajectories", backing)
				}
				if inc.Cost != ref.Cost {
					t.Fatalf("%s: cost breakdowns diverge: incremental %+v from-scratch %+v", backing, inc.Cost, ref.Cost)
				}
				if !reflect.DeepEqual(inc.PerSlot, ref.PerSlot) {
					t.Fatalf("%s: per-slot metrics diverge", backing)
				}
			}
		})
	}
}

// TestSimulateIncrementalEquivalenceFaulted repeats the differential run
// under instance faults (an outage plus a bandwidth degradation): event
// replans truncate commitments at irregular boundaries, driving the
// cross-window Advance hint through non-uniform shifts, and the overlay
// flips capacities mid-horizon — none of which may break the incremental
// paths' bit-exactness.
func TestSimulateIncrementalEquivalenceFaulted(t *testing.T) {
	inS, _, predS, _ := equivSetup(t)
	mkSchedule := func() *fault.Schedule {
		return &fault.Schedule{Injectors: []fault.Injector{
			fault.Outage{SBS: 0, From: 2, To: 5},
			fault.BandwidthFactor{SBS: 1, From: 4, To: 8, Factor: 0.5},
		}}
	}
	run := func(p Policy) *Result {
		t.Helper()
		cfgRun := Config{Audit: true}
		cfgRun.Faults = mkSchedule()
		r, err := RunWith(context.Background(), inS, predS, p, cfgRun)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Audit.Err(); err != nil {
			t.Fatalf("faulted run failed audit: %v", err)
		}
		return r
	}
	cfg := online.RHC(4)
	ref := cfg
	ref.Core.DisableIncremental = true
	inc, base := run(Online(cfg)), run(Online(ref))
	if !reflect.DeepEqual(inc.Trajectory, base.Trajectory) {
		t.Fatal("faulted incremental and from-scratch runs committed different trajectories")
	}
	if inc.Cost != base.Cost {
		t.Fatalf("faulted cost breakdowns diverge: incremental %+v from-scratch %+v", inc.Cost, base.Cost)
	}
}
