// Command tracecheck validates a Chrome trace-event file produced by
// the -trace-spans flag: the JSON must parse, every complete event must
// be well-formed (non-negative timestamps and durations, known parent),
// the span hierarchy must reach a minimum nesting depth, and required
// span names must be present. A required entry of the form span.attr
// instead requires some span of that name to carry that attribute. It is
// the assertion behind `make trace-demo` and the CI trace artifact.
//
// Usage:
//
//	tracecheck -min-depth 3 -require run,window_solve,loadbalance,solve.ub_source trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// traceDoc mirrors the object flavour of the Chrome trace-event format.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Args  map[string]any `json:"args"`
}

func main() {
	minDepth := flag.Int("min-depth", 3, "minimum span nesting depth the trace must reach (root = depth 1)")
	require := flag.String("require", "", "comma-separated span names (or span.attr attributes) that must appear")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-min-depth N] [-require a,b,c] trace.json")
		os.Exit(2)
	}
	if err := check(flag.Arg(0), *minDepth, splitList(*require)); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func check(path string, minDepth int, required []string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: not valid Chrome trace JSON: %w", path, err)
	}

	// First pass: collect complete ("X") events and their span IDs.
	parent := map[uint64]uint64{} // span id -> parent id (0 = root)
	names := map[uint64]string{}
	seen := map[string]bool{}
	var spans int
	for i, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		spans++
		seen[e.Name] = true
		for k := range e.Args {
			seen[e.Name+"."+k] = true
		}
		if e.TS < 0 || e.Dur < 0 {
			return fmt.Errorf("%s: event %d (%s): negative ts/dur", path, i, e.Name)
		}
		id, ok := argID(e.Args, "id")
		if !ok {
			return fmt.Errorf("%s: event %d (%s): missing args.id", path, i, e.Name)
		}
		names[id] = e.Name
		if p, ok := argID(e.Args, "parent"); ok {
			parent[id] = p
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: no complete (ph=X) span events", path)
	}

	// Depth via parent chains; every referenced parent must exist.
	maxDepth := 0
	var deepest uint64
	for id := range names {
		d, cur := 1, id
		for {
			p, ok := parent[cur]
			if !ok {
				break
			}
			if _, exists := names[p]; !exists {
				return fmt.Errorf("%s: span %d (%s) references unknown parent %d", path, id, names[id], p)
			}
			d++
			cur = p
			if d > len(names) {
				return fmt.Errorf("%s: parent cycle through span %d", path, id)
			}
		}
		if d > maxDepth {
			maxDepth, deepest = d, id
		}
	}
	if maxDepth < minDepth {
		return fmt.Errorf("%s: max nesting depth %d < required %d", path, maxDepth, minDepth)
	}

	var missing []string
	for _, name := range required {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: required span name(s) or attribute(s) missing: %s", path, strings.Join(missing, ", "))
	}

	// Reconstruct the deepest chain for the summary line.
	chain := []string{}
	for cur, ok := deepest, true; ok; cur, ok = parent[cur], parentExists(parent, cur) {
		chain = append([]string{names[cur]}, chain...)
	}
	fmt.Printf("tracecheck: %s ok — %d span(s), max depth %d (%s)\n",
		path, spans, maxDepth, strings.Join(chain, " > "))
	return nil
}

func parentExists(parent map[uint64]uint64, id uint64) bool {
	_, ok := parent[id]
	return ok
}

// argID reads a numeric span id out of args (encoding/json decodes
// numbers as float64).
func argID(args map[string]any, key string) (uint64, bool) {
	v, ok := args[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	if !ok || f < 0 {
		return 0, false
	}
	return uint64(f), true
}
