package loadbalance

import (
	"testing"

	"edgecache/internal/model"
	"edgecache/internal/workload"
)

func seamInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := workload.PaperDefault()
	cfg.N = 1
	cfg.T = 12
	cfg.K = 4
	cfg.ClassesPerSBS = 2
	in, err := workload.BuildInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// tagIterates overwrites every slot's first iterate coordinate with a
// recognisable per-window-slot tag so rotation is observable through
// ExportIterates. Rotation-only: the workspace must not solve afterwards.
func tagIterates(t *testing.T, ws *Workspace, slots int) {
	t.Helper()
	y := ws.ExportIterates()
	if len(y) != slots {
		t.Fatalf("workspace has %d slot states, want %d", len(y), slots)
	}
	for i := range y {
		y[i][0] = float64(100 + i)
	}
	if err := ws.ImportIterates(y); err != nil {
		t.Fatal(err)
	}
}

// TestBindAdvanceTailShrink pins the window-shrink case at the horizon
// tail (to − from < w): when the next window is shorter than the
// previous one, the overlap clamps to the new horizon, every surviving
// slot state must hold the *new* window's demand plane for its absolute
// slot, and carried iterates must land on the correct absolute slots —
// no stale trailing planes from the longer previous window.
func TestBindAdvanceTailShrink(t *testing.T) {
	in := seamInstance(t)
	init := in.InitialPlan()

	sliceA, err := in.Demand.Slice(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	winA, err := in.Window(8, 12, init, sliceA) // T = 4
	if err != nil {
		t.Fatal(err)
	}
	sliceB, err := in.Demand.Slice(9, 12)
	if err != nil {
		t.Fatal(err)
	}
	winB, err := in.Window(9, 12, init, sliceB) // T = 3: the shrunk tail
	if err != nil {
		t.Fatal(err)
	}

	ws := NewWorkspace()
	ws.Bind(winA)
	tagIterates(t, ws, 4)
	ws.BindAdvance(winB, 1)

	y := ws.ExportIterates()
	if len(y) != 3 {
		t.Fatalf("shrunk window has %d slot states, want 3", len(y))
	}
	var lam []float64
	for tt := 0; tt < 3; tt++ {
		// Window slot tt of winB is absolute slot 9+tt = winA slot tt+1.
		if got, want := y[tt][0], float64(100+tt+1); got != want {
			t.Errorf("tail slot %d carries iterate tag %g, want %g", tt, got, want)
		}
		lam = winB.Demand.CopySlot(lam, tt, 0)
		if !equalFloats(lam, ws.slots[tt].lambda) {
			t.Errorf("tail slot %d holds a stale demand plane", tt)
		}
		if ws.slots[tt].t != tt {
			t.Errorf("tail slot %d records window slot %d", tt, ws.slots[tt].t)
		}
	}
}

// TestBindAdvanceTrustsTheHintOnStationaryPlanes is the mechanism behind
// the online seam bug this revision fixes: BindAdvance verifies each
// rotated slot's demand plane bitwise, but two window slots with
// identical planes (stationary demand) are indistinguishable, so a
// misaligned advance hint is accepted *silently* and carries dual
// iterates onto the wrong absolute slots. The caller's hint must
// therefore be exact — measured from the window the workspace really
// bound, which is what online.versionState's separate workspace seam
// guarantees.
func TestBindAdvanceTrustsTheHintOnStationaryPlanes(t *testing.T) {
	in := seamInstance(t)
	init := in.InitialPlan()

	// A stationary forecast: every slot of both windows sees the bitwise
	// same demand plane (slot 0 of the base tensor, repeated).
	stationary := func(slots int) *model.Demand {
		d := model.NewDemand(slots, in.Classes, in.K)
		var row []float64
		row = in.Demand.CopySlot(row, 0, 0)
		for tt := 0; tt < slots; tt++ {
			for m := 0; m < in.Classes[0]; m++ {
				for k := 0; k < in.K; k++ {
					if v := row[m*in.K+k]; v != 0 {
						d.Set(tt, 0, m, k, v)
					}
				}
			}
		}
		return d
	}
	winA, err := in.Window(0, 4, init, stationary(4))
	if err != nil {
		t.Fatal(err)
	}
	winB, err := in.Window(1, 5, init, stationary(4)) // true shift: 1 slot
	if err != nil {
		t.Fatal(err)
	}

	carried := func(advance int) []float64 {
		ws := NewWorkspace()
		ws.Bind(winA)
		tagIterates(t, ws, 4)
		ws.BindAdvance(winB, advance)
		y := ws.ExportIterates()
		tags := make([]float64, len(y))
		for i := range y {
			tags[i] = y[i][0]
		}
		return tags
	}

	aligned := carried(1)
	misaligned := carried(2)
	// The aligned hint carries winA slot tt+1 into winB slot tt.
	for tt := 0; tt < 3; tt++ {
		if got, want := aligned[tt], float64(100+tt+1); got != want {
			t.Fatalf("aligned advance: slot %d carries tag %g, want %g", tt, got, want)
		}
	}
	// The misaligned hint is accepted without error and shifts the carry
	// by one absolute slot: winB slot tt now holds winA slot tt+2's
	// iterate. Nothing in the bind can detect this — the planes match.
	for tt := 0; tt < 2; tt++ {
		if got, want := misaligned[tt], float64(100+tt+2); got != want {
			t.Fatalf("misaligned advance: slot %d carries tag %g, want %g (silent wrong-slot carry is the pinned behaviour)", tt, got, want)
		}
	}
}

// TestImportIteratesRoundTrip pins the snapshot/restore seam of the
// workspace: export → fresh bind → import reproduces the iterate state
// verbatim, and malformed payloads are rejected.
func TestImportIteratesRoundTrip(t *testing.T) {
	in := seamInstance(t)
	sliceA, err := in.Demand.Slice(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	win, err := in.Window(0, 4, in.InitialPlan(), sliceA)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Bind(win)
	tagIterates(t, ws, 4)
	y := ws.ExportIterates()

	ws2 := NewWorkspace()
	ws2.Bind(win)
	if err := ws2.ImportIterates(y); err != nil {
		t.Fatal(err)
	}
	y2 := ws2.ExportIterates()
	for i := range y {
		if !equalFloats(y[i], y2[i]) {
			t.Fatalf("slot %d did not round-trip: %v vs %v", i, y[i], y2[i])
		}
	}
	if err := ws2.ImportIterates(y[:2]); err == nil {
		t.Error("ImportIterates accepted a short payload")
	}
	bad := append([][]float64{}, y...)
	bad[1] = bad[1][:1]
	if err := ws2.ImportIterates(bad); err == nil {
		t.Error("ImportIterates accepted a mis-sized iterate")
	}

	// A nonzero entry at a λ = 0 coordinate is a state no solve produces;
	// the active view would carry it silently, so import refuses it.
	sp := sparseInstance(t)
	ws3 := NewWorkspace()
	ws3.Bind(sp)
	ys := ws3.ExportIterates()
	planted := false
plant:
	for i, s := range ws3.slots {
		for j, v := range s.lambda {
			if v == 0 {
				ys[i][j] = 0.5
				planted = true
				break plant
			}
		}
	}
	if !planted {
		t.Fatal("sparse instance has no zero-demand coordinate")
	}
	if err := ws3.ImportIterates(ys); err == nil {
		t.Error("ImportIterates accepted a nonzero iterate at a zero-demand coordinate")
	}
}
