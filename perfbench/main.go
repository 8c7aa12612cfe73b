// Command perfbench is the repository benchmark. It runs one workload of
// the simulator with inputs generated from a seed, checks the simulated
// outputs against an invariant-armed run of the same seed (and, at the
// default seed, against the digests recorded in digests.json), and prints
// its metrics as one JSON object on the last line of standard output.
//
// With --trace 0 it repeats the workload for --seconds and prints the
// end-to-end metrics. With --trace 1 it makes a fixed set of passes
// (armed, untraced, traced) and prints the per-layer metrics; the traced
// pass's spans are written to $CARGO_TARGET_DIR/spans (default
// .bench_build/spans). --selfcheck runs every workload briefly and checks
// the output against BENCHMARK.json.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload pr-multipath --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selfcheck
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeed is the seed whose digests are recorded in digests.json.
const defaultSeed = 1

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner){
	"pr-multipath": runPRMultipath,
	"city-2shard":  runCity2Shard,
	"repair-sweep": runRepairSweep,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"sim_rate", "sim-s/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_sim_s", "MB/sim-s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.queue_depth_mean", "count"},
	{"sim.queue_depth_max", "count"},
	{"core.onack_calls", "count"},
	{"core.onack_self_ns", "ns"},
	{"core.inflight_mean", "count"},
	{"core.retx_useful_frac", "frac"},
	{"tcp.rfc_onack_calls", "count"},
	{"tcp.rfc_onack_self_ns", "ns"},
	{"tcp.transmit_ns", "ns"},
	{"tcp.retx", "count"},
	{"tcp.goodput_frac", "frac"},
	{"netem.pkts_sent", "count"},
	{"netem.hops", "count"},
	{"netem.queue_wait_ms_mean", "ms"},
	{"netem.drops", "count"},
	{"netem.reorder_held", "count"},
	{"netem.repair_held", "count"},
	{"netem.repair_timed_out", "count"},
	{"netem.repair_evicted", "count"},
	{"routing.route_calls", "count"},
	{"routing.route_ns", "ns"},
	{"workload.flows_started", "count"},
	{"workload.transfers", "count"},
	{"workload.transfer_frac", "frac"},
	{"psim.windows", "count"},
	{"psim.execute_s", "s"},
	{"psim.wait_s", "s"},
	{"psim.exchange_s", "s"},
	{"psim.messages", "count"},
	{"psim.busy_frac", "frac"},
	{"psim.events_imbalance", "ratio"},
	{"psim.window_ms_p50", "ms"},
	{"psim.window_ms_p99", "ms"},
	{"psim.cross_shard_bulk_delta", "frac"},
	{"invariant.violations", "count"},
	{"invariant.overhead_frac", "frac"},
	{"experiments.cells", "count"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.cell_ms_p90", "ms"},
	{"experiments.parallel_frac", "frac"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the op digests recorded at defaultSeed, in op
// order (one per run of a workload, one per cell of the sweep).
func recordedDigests(workload string) []string {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return all[workload]
}

func main() {
	name := flag.String("workload", "", "workload: pr-multipath, city-2shard or repair-sweep")
	seed := flag.Int64("seed", defaultSeed, "seed the workload inputs are generated from")
	secs := flag.Float64("seconds", 30, "how long to measure (untraced runs)")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload briefly and check the output contract")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: selfcheck passed")
		return
	}
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload pr-multipath|city-2shard|repair-sweep, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	res, r := runWorkload(*name, run, *seed, *secs, *trace == 1)
	if r.trace {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d op digests: %v\n", *name, *seed, r.digests)
	printResult(os.Stdout, res, r)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine is the record every result carries.
type machine struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	HorizonS   float64 `json:"horizon_s"`
	Trace      bool    `json:"trace"`
}

// horizons is each op's simulated length in seconds (a sweep op is a cell).
var horizons = map[string]float64{
	"pr-multipath": prHorizon.Seconds(),
	"city-2shard":  cityHorizon.Seconds(),
	"repair-sweep": cellHorizon.Seconds(),
}

func runWorkload(name string, run func(*runner), seed int64, secs float64, trace bool) (result, *runner) {
	r := &runner{workload: name, seed: seed, seconds: secs, trace: trace, metrics: map[string]metric{}}
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.attempted++
				r.failed++
				r.problem("panic: %v", p)
			}
		}()
		run(r)
	}()
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.problem("metric %s not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metric{v.Value, d.unit}
	}
	if r.attempted == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0
	return res, r
}

func printResult(w *os.File, res result, r *runner) {
	rec := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workload: r.workload, Seed: r.seed, HorizonS: horizons[r.workload], Trace: r.trace,
	}
	recJSON, _ := json.Marshal(map[string]machine{"machine": rec})
	fmt.Fprintln(w, string(recJSON))
	for _, p := range r.problems {
		fmt.Fprintln(w, "problem:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s (%d of %d ops)\n", "fail_frac",
		float64(res.Failed)/float64(res.Attempted), "frac", res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(out))
}
