package online

import (
	"fmt"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/obs"
)

// combiner merges the per-slot actions of the staggered FHC versions into
// the committed trajectory — the average/round/repair/commit stage of
// Algorithm 3, run one slot at a time by Stream. The averaging
// buffers are allocated once and rotated: avgX swaps with prevAvgX at the
// end of each commit (the replacement-cost term needs last slot's
// average), avgY is consumed within the slot.
//
// The stage is split in two because only half of it needs the slot's
// realised demand: average is a pure function of the versions' committed
// actions (called again for the same slot it recomputes the same
// buffers), which lets a live controller publish a provisional plan when
// the slot opens; commit consumes the buffers against the realised demand
// row when the slot closes.
type combiner struct {
	in  *model.Instance
	cfg Config // already defaulted

	avgX     model.CachePlan
	avgY     model.LoadPlan
	prevAvgX model.CachePlan
	prevX    model.CachePlan

	round core.Rounder

	relaxed   float64
	capSBS    int // slot-SBS pairs where the capacity repair fired
	bwRepairs int // slot-SBS pairs where the bandwidth rescale fired
}

func newCombiner(in *model.Instance, cfg Config) *combiner {
	return &combiner{
		in:       in,
		cfg:      cfg,
		avgX:     model.NewCachePlan(in.N, in.K),
		avgY:     model.NewLoadPlan(in.Classes, in.K),
		prevAvgX: in.InitialPlan(),
		prevX:    in.InitialPlan(),
	}
}

// average fills the slot-t averaging buffers from the versions' committed
// actions xa[v][t] and ya[v][t]. It errors when a version committed no
// action for the slot.
func (c *combiner) average(t int, xa [][]model.CachePlan, ya [][]model.LoadPlan) error {
	in := c.in
	for n := 0; n < in.N; n++ {
		row := c.avgX[n]
		for k := range row {
			row[k] = 0
		}
		for m := 0; m < in.Classes[n]; m++ {
			yRow := c.avgY[n][m]
			for k := range yRow {
				yRow[k] = 0
			}
		}
	}
	versions := float64(len(xa))
	for v := range xa {
		xv, yv := xa[v][t], ya[v][t]
		if xv == nil || yv == nil {
			return fmt.Errorf("online: version %d committed no action for slot %d", v, t)
		}
		for n := 0; n < in.N; n++ {
			for k := 0; k < in.K; k++ {
				c.avgX[n][k] += xv[n][k] / versions
			}
			for m := 0; m < in.Classes[n]; m++ {
				for k := 0; k < in.K; k++ {
					c.avgY[n][m][k] += yv[n][m][k] / versions
				}
			}
		}
	}
	return nil
}

// commit finalises slot t from the averaging buffers against the realised
// demand row: accumulate the relaxed objective, round the placement,
// repair the load split, advance the repair counters and rotate the
// buffers. average(t, …) must have run first.
func (c *combiner) commit(t int) (model.SlotDecision, error) {
	in, cfg := c.in, c.cfg

	// Relaxed (pre-rounding) objective for the Theorem 3 bound. The
	// averaged y may marginally exceed the true bandwidth (each version
	// budgeted against predictions), which the relaxed objective
	// tolerates.
	c.relaxed += in.BSCost(t, c.avgY) + in.SBSCost(t, c.avgY) +
		in.ReplacementCost(c.prevAvgX, c.avgX)

	x := model.NewCachePlan(in.N, in.K)
	candidates, capDropped, capSBS := c.round.Round(in, t, c.avgX, x, cfg.Rho)
	var y model.LoadPlan
	var bwRepaired int
	if cfg.LoadMode == LoadReactive {
		var err error
		y, err = reactiveLoad(in, t, x)
		if err != nil {
			return model.SlotDecision{}, err
		}
	} else {
		y, bwRepaired = predictedLoad(in, t, x, c.avgY)
	}
	dec := model.SlotDecision{X: x, Y: y}

	// Repair counters advance once per (slot, SBS) where the repair
	// fired (DESIGN.md §6); the per-entry drop count goes into the
	// slot_decision event below instead.
	c.capSBS += capSBS
	c.bwRepairs += bwRepaired
	mCapDrops.Add(int64(capSBS))
	mBWRepairs.Add(int64(bwRepaired))
	churn := model.ReplacementCount(c.prevX, x)
	mChurnH.Observe(float64(churn))
	if cfg.Telemetry.Enabled() {
		var cached int
		for n := 0; n < in.N; n++ {
			cached += len(x.Items(n))
		}
		cfg.Telemetry.Emit("slot_decision", obs.Fields{
			"controller":  cfg.Name(),
			"slot":        t,
			"window":      cfg.Window,
			"commitment":  cfg.Commitment,
			"rho":         cfg.Rho,
			"load_mode":   cfg.LoadMode.String(),
			"candidates":  candidates,
			"cached":      cached,
			"cap_dropped": capDropped,
			"bw_repaired": bwRepaired,
			"churn":       churn,
		})
	}
	c.prevX = x
	c.prevAvgX, c.avgX = c.avgX, c.prevAvgX
	return dec, nil
}
