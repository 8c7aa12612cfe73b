package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the self-check compares.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runSelfcheck runs every workload briefly at the default seed: twice
// untraced, asserting identical op digests, and once traced. Each run must
// pass its own checks and print exactly the metrics BENCHMARK.json names,
// with their units.
func runSelfcheck() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !slices.Equal(names, known) {
		return fmt.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for _, name := range known {
		var first []string
		for i, trace := range []bool{false, false, true} {
			res, r := runWorkload(name, workloads[name], defaultSeed, 1, trace)
			if !res.Correct {
				return fmt.Errorf("%s trace=%v: failed %d of %d ops: %v", name, trace, res.Failed, res.Attempted, r.problems)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					return fmt.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
			}
			switch i {
			case 0:
				first = r.digests
			case 1:
				if !slices.Equal(first, r.digests) {
					return fmt.Errorf("%s: two runs of seed %d gave different digests", name, defaultSeed)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s trace=%v ok (%d ops)\n", name, trace, res.Attempted)
		}
	}
	return nil
}
