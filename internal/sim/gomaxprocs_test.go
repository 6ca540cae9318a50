package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/fault"
	"edgecache/internal/model"
	"edgecache/internal/online"
	"edgecache/internal/workload"
)

// gomaxprocsOutEnv names the file a re-executed child writes its
// trajectories to; its presence marks the process as the child.
const gomaxprocsOutEnv = "EDGECACHE_GOMAXPROCS_TRAJECTORIES"

// TestTrajectoriesIndependentOfGOMAXPROCS pins that committed trajectories
// do not depend on the worker count: the test binary re-executes itself
// with GOMAXPROCS=1 and GOMAXPROCS=4 and requires byte-identical JSON
// trajectories for Offline, RHC(3), CHC(4,2) and a faulted AFHC(4) on a
// dense and a sparse instance. The faulted run injects a solver fault on
// an outage's first slot, where every AFHC version replans and the
// versions compete for that slot's fault budget. A re-exec is needed
// because the shared worker pool of package
// parallel is sized once at init, so changing runtime.GOMAXPROCS inside
// the process would not change the fan-out.
func TestTrajectoriesIndependentOfGOMAXPROCS(t *testing.T) {
	if out := os.Getenv(gomaxprocsOutEnv); out != "" {
		writeGOMAXPROCSTrajectories(t, out)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]byte
	for _, procs := range []int{1, 4} {
		out := filepath.Join(t.TempDir(), "trajectories.json")
		cmd := exec.Command(exe, "-test.run=^TestTrajectoriesIndependentOfGOMAXPROCS$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs), gomaxprocsOutEnv+"="+out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOMAXPROCS=%d child: %v\n%s", procs, err, msg)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d child wrote no trajectories: %v", procs, err)
		}
		runs = append(runs, data)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("trajectories differ between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// writeGOMAXPROCSTrajectories is the child side: run every policy on
// every instance and write the committed trajectories and costs as JSON.
func writeGOMAXPROCSTrajectories(t *testing.T, out string) {
	if want := os.Getenv("GOMAXPROCS"); strconv.Itoa(runtime.GOMAXPROCS(0)) != want {
		t.Fatalf("child runs at GOMAXPROCS %d, want %s", runtime.GOMAXPROCS(0), want)
	}
	cfg := workload.PaperDefault()
	cfg.N = 2
	cfg.T = 8
	cfg.K = 16
	cfg.ClassesPerSBS = 3
	cfg.CacheCap = 2
	cfg.Bandwidth = 6
	cfg.Beta = 5
	cfg.OmegaSBSRatio = 0.3
	type result struct {
		Instance, Policy string
		Trajectory       model.Trajectory
		Cost             model.CostBreakdown
	}
	var results []result
	for _, inst := range []struct {
		name string
		opts []workload.Option
	}{
		{"dense", nil},
		{"sparse", []workload.Option{workload.WithSparse(4)}},
	} {
		in, err := workload.BuildInstanceWith(cfg, inst.opts...)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := workload.NewPredictor(in.Demand, 0.1, 3)
		if err != nil {
			t.Fatal(err)
		}
		eventFault := &fault.Schedule{Injectors: []fault.Injector{
			fault.Outage{SBS: 0, From: 3, To: 5},
			fault.SolverFault{Slot: 3, Attempts: 3},
		}}
		for _, run := range []struct {
			pol    Policy
			faults *fault.Schedule
		}{
			{Offline(core.Options{MaxIter: 20}), nil},
			{Online(online.RHC(3)), nil},
			{Online(online.CHC(4, 2)), nil},
			{Online(online.AFHC(4)), eventFault},
		} {
			r, err := RunWith(context.Background(), in, pred, run.pol, Config{Faults: run.faults})
			if err != nil {
				t.Fatalf("%s %s: %v", inst.name, run.pol.Name(), err)
			}
			results = append(results, result{inst.name, run.pol.Name(), r.Trajectory, r.Cost})
		}
	}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
