// Package mcflow implements a min-cost-flow solver by successive shortest
// paths with Johnson potentials.
//
// The caching subproblem P1 of the paper (eq. 18, linearised as eq. 21–22)
// is, per SBS, an integral LP on a time-expanded "cache slot" network: C_n
// units of slot-flow travel from the first to the last slot, either idling
// in a pool or occupying an item, paying β_n when they fetch an item and
// collecting the dual reward Σ_m μ^t_{m,k} while holding it. Total
// unimodularity (Theorem 1 of the paper) is exactly flow integrality, so
// solving the flow problem yields the paper's integral optimum directly.
// Package caching builds that network; this package solves it.
//
// Costs may be negative (rewards). Initial potentials are computed by DAG
// relaxation when the graph is acyclic — which the time-expanded network
// always is — and by Bellman–Ford otherwise; subsequent iterations use
// Dijkstra on reduced costs.
//
// # Reuse contract: Reset + SetCost
//
// A network can be reused across solves that differ only in arc costs.
// Reset restores every arc to its construction capacity, erasing all
// routed flow; SetCost retargets an arc's cost, on a graph that holds flow
// or not. Reset, retarget costs (in either order), Solve — the results
// match a freshly constructed graph bit for bit, Result.Cost included
// (TestResetSetCostMatchesFresh). There is deliberately no
// keep-the-previous-flow re-solve: a dual step moves whole reward rows,
// and on the service's traffic such a tier almost never kept a flow
// (DESIGN.md §12).
package mcflow

import (
	"errors"
	"fmt"
	"math"
)

// Solver failure modes.
var (
	// ErrInfeasible reports that the requested supply cannot reach the sink.
	ErrInfeasible = errors.New("mcflow: requested flow exceeds network capacity")
	// ErrNegativeCycle reports a negative-cost cycle, on which min-cost flow
	// is unbounded below.
	ErrNegativeCycle = errors.New("mcflow: negative-cost cycle")
)

// Arc identifies an arc returned by AddArc, usable to query its flow after
// a solve.
type Arc int

// arc is a directed residual edge. Arcs are stored in pairs: arc 2i is the
// forward edge and 2i+1 its residual reverse.
type arc struct {
	to   int
	cap  int // remaining capacity
	cost float64
	next int // index of previous arc out of the same tail, -1 terminates
}

// Graph is a directed flow network under construction. The zero value is
// not usable; call NewGraph. A graph is not safe for concurrent use (Solve
// mutates residual capacities and reuses internal scratch).
type Graph struct {
	head []int // per node: last arc index, -1 if none
	arcs []arc
	caps []int // original capacity of each forward arc, for flow queries

	// Solver scratch, lazily sized to the node count and reused across
	// Solve calls so repeated solves on a reused graph allocate nothing.
	pi, dist     []float64
	prevArc      []int
	done         []bool
	q            []pqItem
	indeg, order []int
	queue        []int
}

// NewGraph returns an empty network with n nodes, numbered 0..n−1.
func NewGraph(n int) *Graph {
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{head: head}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.head) }

// AddArc adds a directed arc from → to with the given capacity and per-unit
// cost, returning its handle. Capacity must be non-negative and the
// endpoints in range; violations panic since they are construction bugs.
func (g *Graph) AddArc(from, to int, capacity int, cost float64) Arc {
	if from < 0 || from >= len(g.head) || to < 0 || to >= len(g.head) {
		panic(fmt.Sprintf("mcflow: arc (%d → %d) outside node range [0, %d)", from, to, len(g.head)))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("mcflow: negative capacity %d", capacity))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("mcflow: non-finite cost %g", cost))
	}
	id := Arc(len(g.caps))
	g.arcs = append(g.arcs, arc{to: to, cap: capacity, cost: cost, next: g.head[from]})
	g.head[from] = len(g.arcs) - 1
	g.arcs = append(g.arcs, arc{to: from, cap: 0, cost: -cost, next: g.head[to]})
	g.head[to] = len(g.arcs) - 1
	g.caps = append(g.caps, capacity)
	return id
}

// Flow returns the flow currently routed through arc id (0 before Solve).
func (g *Graph) Flow(id Arc) int {
	return g.caps[id] - g.arcs[2*id].cap
}

// Reset restores every arc's residual capacity to its construction value
// (forward = capacity, reverse = 0), erasing all routed flow so the graph
// can be solved afresh. Costs are kept. Together with SetCost this lets a
// caller reuse one network across solves that differ only in arc costs —
// the dual-reward updates of the caching subproblem P1.
func (g *Graph) Reset() {
	for i, c := range g.caps {
		g.arcs[2*i].cap = c
		g.arcs[2*i+1].cap = 0
	}
}

// SetCost replaces the cost of arc id (and of its residual reverse). Call
// it only between solves. Solve extends whatever flow the graph holds, so
// a cost change meant to apply to the whole flow needs a Reset before the
// next Solve.
func (g *Graph) SetCost(id Arc, cost float64) {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("mcflow: non-finite cost %g", cost))
	}
	g.arcs[2*id].cost = cost
	g.arcs[2*id+1].cost = -cost
}

// scratch sizes the reusable solver buffers to the node count.
func (g *Graph) scratch() {
	n := len(g.head)
	if cap(g.dist) < n {
		g.pi = make([]float64, n)
		g.dist = make([]float64, n)
		g.prevArc = make([]int, n)
		g.done = make([]bool, n)
		g.indeg = make([]int, n)
	} else {
		g.pi = g.pi[:n]
		g.dist = g.dist[:n]
		g.prevArc = g.prevArc[:n]
		g.done = g.done[:n]
		g.indeg = g.indeg[:n]
	}
}

// Result summarises a solve.
type Result struct {
	// Cost is the total cost of the routed flow.
	Cost float64
	// Flow is the amount actually routed (equals the requested supply on
	// success).
	Flow int
}

// Solve routes supply units from source to sink at minimum cost. It
// mutates the graph's residual capacities; call Flow to read per-arc flow
// afterwards. Calling Solve again routes additional flow on top of the
// existing one (the residual graph is re-potentialised first).
func (g *Graph) Solve(source, sink, supply int) (Result, error) {
	if source < 0 || source >= len(g.head) || sink < 0 || sink >= len(g.head) {
		return Result{}, fmt.Errorf("mcflow: endpoints (%d, %d) outside node range [0, %d)", source, sink, len(g.head))
	}
	if supply < 0 {
		return Result{}, fmt.Errorf("mcflow: negative supply %d", supply)
	}
	if supply == 0 {
		return Result{}, nil
	}

	g.scratch()
	pi, err := g.initialPotentials(source)
	if err != nil {
		return Result{}, err
	}

	var res Result
	dist, prevArc := g.dist, g.prevArc
	for res.Flow < supply {
		ok := g.dijkstra(source, pi, dist, prevArc)
		if !ok {
			return Result{}, errors.New("mcflow: internal error: negative reduced cost (corrupted potentials)")
		}
		if math.IsInf(dist[sink], 1) {
			return Result{}, fmt.Errorf("%w: routed %d of %d", ErrInfeasible, res.Flow, supply)
		}
		// Update potentials, capping unreachable nodes at the sink distance
		// so reduced costs stay non-negative on arcs that can still matter.
		dSink := dist[sink]
		for v := range pi {
			pi[v] += math.Min(dist[v], dSink)
		}
		// Bottleneck along the path.
		bottleneck := supply - res.Flow
		for v := sink; v != source; {
			a := &g.arcs[prevArc[v]]
			if a.cap < bottleneck {
				bottleneck = a.cap
			}
			v = g.arcs[prevArc[v]^1].to
		}
		// Augment.
		for v := sink; v != source; {
			fwd := &g.arcs[prevArc[v]]
			rev := &g.arcs[prevArc[v]^1]
			fwd.cap -= bottleneck
			rev.cap += bottleneck
			res.Cost += fwd.cost * float64(bottleneck)
			v = rev.to
		}
		res.Flow += bottleneck
	}
	return res, nil
}

// initialPotentials computes shortest-path potentials from source over the
// original arcs, by DAG relaxation when possible and Bellman–Ford otherwise.
func (g *Graph) initialPotentials(source int) ([]float64, error) {
	if order, ok := g.topoOrder(); ok {
		return g.dagPotentials(source, order), nil
	}
	return g.bellmanFord(source)
}

// topoOrder returns a topological order of nodes over residual arcs with
// positive capacity, or ok = false if the residual graph has a cycle (which
// is always the case after at least one augmentation). The returned slice
// aliases graph scratch.
func (g *Graph) topoOrder() ([]int, bool) {
	n := len(g.head)
	indeg := g.indeg
	for i := range indeg {
		indeg[i] = 0
	}
	for u := 0; u < n; u++ {
		for e := g.head[u]; e != -1; e = g.arcs[e].next {
			if g.arcs[e].cap > 0 {
				indeg[g.arcs[e].to]++
			}
		}
	}
	if cap(g.order) < n {
		g.order = make([]int, 0, n)
		g.queue = make([]int, 0, n)
	}
	order := g.order[:0]
	queue := g.queue[:0]
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, u)
		for e := g.head[u]; e != -1; e = g.arcs[e].next {
			if g.arcs[e].cap > 0 {
				v := g.arcs[e].to
				indeg[v]--
				if indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	return order, len(order) == n
}

// dagPotentials relaxes arcs in topological order. Nodes unreachable from
// the source keep potential 0, which is safe because no residual arc into
// them exists yet. The returned slice aliases graph scratch.
func (g *Graph) dagPotentials(source int, order []int) []float64 {
	dist := g.pi
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	for _, u := range order {
		if math.IsInf(dist[u], 1) {
			continue
		}
		for e := g.head[u]; e != -1; e = g.arcs[e].next {
			if g.arcs[e].cap == 0 {
				continue
			}
			if d := dist[u] + g.arcs[e].cost; d < dist[g.arcs[e].to] {
				dist[g.arcs[e].to] = d
			}
		}
	}
	for i, d := range dist {
		if math.IsInf(d, 1) {
			dist[i] = 0
		}
	}
	return dist
}

// bellmanFord computes potentials on general graphs and detects negative
// cycles reachable from the source. The returned slice aliases graph
// scratch.
func (g *Graph) bellmanFord(source int) ([]float64, error) {
	n := len(g.head)
	dist := g.pi
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[source] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for e := g.head[u]; e != -1; e = g.arcs[e].next {
				if g.arcs[e].cap == 0 {
					continue
				}
				if d := dist[u] + g.arcs[e].cost; d < dist[g.arcs[e].to]-1e-12 {
					dist[g.arcs[e].to] = d
					changed = true
				}
			}
		}
		if !changed {
			for i, d := range dist {
				if math.IsInf(d, 1) {
					dist[i] = 0
				}
			}
			return dist, nil
		}
	}
	return nil, ErrNegativeCycle
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node int
	dist float64
}

// pqPush appends it and sifts it up. The sift replicates container/heap's
// order of comparisons and swaps exactly, so equal-distance tie-breaks —
// and therefore the augmenting paths Dijkstra selects — are unchanged from
// the previous container/heap-based implementation.
func pqPush(q []pqItem, it pqItem) []pqItem {
	q = append(q, it)
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	return q
}

// pqPop removes and returns the minimum element, sifting down in
// container/heap's exact order (swap root with last, sift over the
// shortened prefix, then strip the last element).
func pqPop(q []pqItem) (pqItem, []pqItem) {
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	return q[n], q[:n]
}

// dijkstra computes reduced-cost shortest paths over the residual graph.
// It fills dist (potential-adjusted) and prevArc, returning false if a
// negative reduced cost is detected (which indicates corrupted potentials).
func (g *Graph) dijkstra(source int, pi, dist []float64, prevArc []int) bool {
	for i := range dist {
		dist[i] = math.Inf(1)
		prevArc[i] = -1
	}
	dist[source] = 0
	done := g.done
	for i := range done {
		done[i] = false
	}
	q := append(g.q[:0], pqItem{node: source})
	for len(q) > 0 {
		var it pqItem
		it, q = pqPop(q)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for e := g.head[u]; e != -1; e = g.arcs[e].next {
			a := g.arcs[e]
			if a.cap == 0 {
				continue
			}
			rc := a.cost + pi[u] - pi[a.to]
			if rc < -1e-7 {
				g.q = q
				return false
			}
			if rc < 0 {
				rc = 0 // clamp rounding noise
			}
			if d := dist[u] + rc; d < dist[a.to]-1e-15 {
				dist[a.to] = d
				prevArc[a.to] = e
				q = pqPush(q, pqItem{node: a.to, dist: d})
			}
		}
	}
	g.q = q
	return true
}
