package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

// poolInstance builds mediumInstance, whose solved trajectories cache
// items, so an overwritten trajectory shows.
func poolInstance(t *testing.T, mutate func(*workload.InstanceConfig)) *model.Instance {
	t.Helper()
	in, err := workload.BuildInstance(*mediumInstance(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// poolShapes builds small instances of pairwise different shapes, so a
// workspace moving between their solves is rebound to a new size each
// time.
func poolShapes(t *testing.T) []*model.Instance {
	t.Helper()
	return []*model.Instance{
		poolInstance(t, nil),
		poolInstance(t, func(c *workload.InstanceConfig) { c.T, c.K, c.Seed = 3, 11, 7 }),
		poolInstance(t, func(c *workload.InstanceConfig) { c.N, c.K, c.OmegaSBSRatio, c.Seed = 1, 6, 0.25, 3 }),
		poolInstance(t, func(c *workload.InstanceConfig) { c.T, c.ClassesPerSBS, c.CacheCap, c.Seed = 4, 2, 3, 5 }),
	}
}

// caches reports whether a trajectory places any item.
func caches(traj model.Trajectory) bool {
	for _, d := range traj {
		for _, row := range d.X {
			for _, v := range row {
				if v > 0 {
					return true
				}
			}
		}
	}
	return false
}

// TestSolveConcurrentPooledMatchesFresh runs Solve from several
// goroutines at once on instances of different shapes: every concurrent
// Solve borrows a workspace of its own from the pool, so each result is
// bit-identical to that instance's solve on a fresh workspace. Under the
// race detector (make race) it also guards that no two running Solves
// share a workspace.
func TestSolveConcurrentPooledMatchesFresh(t *testing.T) {
	ins := poolShapes(t)
	opts := Options{MaxIter: 6}
	want := make([]*Result, len(ins))
	for i, in := range ins {
		res, err := solve(context.Background(), in, opts, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(ins))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range ins {
					i := (g + j) % len(ins) // stagger so different shapes overlap
					got, err := Solve(context.Background(), ins[i], opts)
					if err != nil {
						errs <- err.Error()
						continue
					}
					if !sameResult(got, want[i]) {
						errs <- "concurrent pooled Solve diverges from its fresh-workspace solve"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSolveResultOutlivesWorkspaceReuse keeps a Result and then hands the
// workspace that produced it to further solves, of the same shape first
// and then of other shapes: the kept Result must still equal an
// independent solve, so no Result field aliases a buffer the workspace
// rewrites.
func TestSolveResultOutlivesWorkspaceReuse(t *testing.T) {
	ins := poolShapes(t)
	same := poolInstance(t, func(c *workload.InstanceConfig) { c.Seed = 43 })
	opts := Options{MaxIter: 8}
	want, err := solve(context.Background(), ins[0], opts, new(workspace))
	if err != nil {
		t.Fatal(err)
	}
	if !caches(want.Trajectory) {
		t.Fatal("the reference trajectory caches nothing; an overwrite could not show")
	}

	later := append([]*model.Instance{same}, ins[1:]...)
	ws := new(workspace)
	kept, err := solve(context.Background(), ins[0], opts, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range later {
		if _, err := solve(context.Background(), in, opts, ws); err != nil {
			t.Fatal(err)
		}
	}
	if !sameResult(kept, want) {
		t.Fatal("a kept Result changed after its workspace served later solves")
	}

	// The same through the pool, as callers see it.
	kept, err = Solve(context.Background(), ins[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range later {
		if _, err := Solve(context.Background(), in, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !sameResult(kept, want) {
		t.Fatal("a kept Result changed after later pooled Solves")
	}
}

// instancePath returns the field path of a non-nil *model.Instance
// reachable from v (through pointers, interfaces, structs, maps and the
// full capacity of slices), or "" when there is none.
func instancePath(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if v.Type() == reflect.TypeFor[*model.Instance]() {
			return path
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return instancePath(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return instancePath(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := instancePath(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice3(0, v.Cap(), v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			if p := instancePath(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := instancePath(it.Value(), path+"[…]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestPooledWorkspaceHoldsNoInstance checks that Solve releases the
// workspace it puts back: an idle pooled workspace keeps its buffers but
// no reference to the instance it last solved, so the garbage collector
// need not mark that instance. It also checks the walk itself finds the
// instance in a bound workspace.
func TestPooledWorkspaceHoldsNoInstance(t *testing.T) {
	in := poolInstance(t, nil)
	opts := Options{MaxIter: 4}
	bound := new(workspace)
	if _, err := solve(context.Background(), in, opts, bound); err != nil {
		t.Fatal(err)
	}
	if instancePath(reflect.ValueOf(bound), "ws", map[uintptr]bool{}) == "" {
		t.Fatal("no instance found in a bound workspace; the walk shows nothing")
	}

	// sync.Pool may drop an item (the race detector drops some on
	// purpose), so retry until a Get returns the workspace Solve used.
	for try := 0; try < 50; try++ {
		if _, err := Solve(context.Background(), in, opts); err != nil {
			t.Fatal(err)
		}
		ws := workspaces.Get().(*workspace)
		used := len(ws.rewards) > 0
		if used {
			if p := instancePath(reflect.ValueOf(ws), "ws", map[uintptr]bool{}); p != "" {
				t.Fatalf("pooled workspace holds the instance at %s", p)
			}
		}
		workspaces.Put(ws)
		if used {
			return
		}
	}
	t.Fatal("no Get returned a workspace a Solve had used")
}
