// Command experiments regenerates the paper's evaluation figures.
//
// Usage:
//
//	experiments [-run name] [-fig n] [-list] [-quick] [-csv dir]
//	            [-metrics dir] [-trace dir] [-flight-recorder]
//	            [-parallel n] [-seed n] [-shards n] [-repair name] [-check]
//	            [-fuzz n] [-fuzz-seed n] [-progress]
//	            [-heartbeat d] [-engine-profile] [-watchdog-timeout d]
//	            [-cpuprofile file] [-memprofile file]
//
// Every experiment is a registered experiments.Spec; -list prints the
// registry with one-line descriptions. -run selects one by name (default
// all, in registry order); -fig N is shorthand for -run figN. -quick
// substitutes shortened simulation windows (useful for smoke runs); the
// default reproduces the paper's 60-second steady-state measurement
// protocol. With -csv the raw per-point data are also written as CSV files
// into the given directory. With -metrics the figures (fig2, fig3, fig4,
// fig6) and the four matrices (faultmatrix, churnmatrix, reordermatrix,
// repairmatrix) also emit one time-series dump (<cell>.series.tsv: cwnd, ssthresh, RTT estimates,
// queue depth, drops) and one run manifest (<cell>.manifest.json: seed,
// topology, parameters, events/sec, final counters) per simulation cell,
// plus a run-level aggregate. -parallel caps the number of concurrent
// simulation cells (default: one per CPU); use -parallel 1 together with
// -cpuprofile for cleanly attributable profiles.
//
// With -trace the four matrices (faultmatrix, churnmatrix, reordermatrix,
// repairmatrix) also write one Perfetto-loadable Chrome trace (<cell>.trace.json) and one
// span TSV (<cell>.spans.tsv) per simulation cell into the directory; see
// TRACING.md.
//
// -shards pins the sharded-city experiment (-run city) to one shard count
// instead of its default 1-vs-4 scaling sweep; -repair pins the
// repair-middlebox matrix (-run repairmatrix) to one repair scenario
// instead of its default {none, repair, repair-tight} sweep. Other
// experiments ignore them.
//
// -progress prints one start and one done line per simulation cell of the
// parallel sweeps to stderr — a long -parallel run stops looking hung.
// -heartbeat, -engine-profile, and -watchdog-timeout arm the
// internal/engineobs telemetry stack on the experiments driving the
// parallel engine (currently -run city): live progress beats (text on
// stderr, JSON lines in -metrics), per-shard window profiles with a
// load-imbalance summary and Perfetto shard lanes (in -metrics), and a
// stall watchdog that aborts a wedged cell with diagnostics instead of
// hanging CI.
//
// -check attaches the internal/invariant conformance oracle to every
// simulation cell; any violation fails the run with a nonzero exit.
// -fuzz N runs N randomized invariant-checked scenarios (topology ×
// protocol mix × fault timeline) instead of the figure experiments, and
// -fuzz-seed S replays exactly one such scenario by seed — the seed a
// failed fuzz run prints. -flight-recorder arms the internal/span flight
// recorder: during fuzz runs and seed replays every violation dumps the
// causal trail of the implicated packet to stderr, and with -trace each
// cell's dumps land in <cell>.flight.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/experiments"
	"tcppr/internal/invariant/fuzzer"
	"tcppr/internal/profiling"
)

func main() {
	runName := flag.String("run", "all", "experiment to run (see -list), or all")
	fig := flag.Int("fig", 0, "shorthand: -fig 2 is -run fig2")
	list := flag.Bool("list", false, "list registered experiments and exit")
	quick := flag.Bool("quick", false, "use shortened simulation windows")
	csvDir := flag.String("csv", "", "directory to write per-point CSV files into")
	metricsDir := flag.String("metrics", "", "directory to write per-cell time series + run manifests into")
	parallel := flag.Int("parallel", 0, "max concurrent simulation cells (0 = one per CPU)")
	seed := flag.Int64("seed", 0, "base seed override for seeded experiments (0 = default)")
	shards := flag.Int("shards", 0, "pin the city experiment to one shard count (0 = its default sweep)")
	repair := flag.String("repair", "", "pin the repairmatrix experiment to one repair scenario (empty = its default sweep)")
	check := flag.Bool("check", false, "attach the invariant oracle to every cell; violations fail the run")
	fuzz := flag.Int("fuzz", 0, "run N randomized invariant-checked scenarios instead of experiments")
	fuzzSeed := flag.Int64("fuzz-seed", 0, "replay one fuzz scenario by seed and report its violations")
	traceDir := flag.String("trace", "", "directory to write per-cell Perfetto traces + span TSVs into (fault/churn/reorder/repair matrices)")
	flightRec := flag.Bool("flight-recorder", false, "arm the flight recorder: violations dump causal trails (with -trace or -fuzz/-fuzz-seed)")
	heartbeat := flag.Duration("heartbeat", 0, "emit live engine heartbeats at this wall-clock interval (city; JSONL lands in -metrics)")
	engineProfile := flag.Bool("engine-profile", false, "write per-shard window profiles + Perfetto shard lanes into -metrics (city)")
	watchdogTimeout := flag.Duration("watchdog-timeout", 0, "abort a cell with diagnostics after this long without progress (0 disables)")
	progress := flag.Bool("progress", false, "print per-cell start/done lines for parallel sweeps to stderr")
	prof := profiling.Register()
	flag.Parse()

	// Validate the whole flag set up front, reporting every problem at
	// once (the tcpsim pattern): a bad invocation dies with a usage error
	// here, not a panic halfway into an hour-long sweep.
	var bad []string
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if *parallel < 0 {
		reject("-parallel cannot be negative, got %d", *parallel)
	}
	if *shards < 0 {
		reject("-shards cannot be negative, got %d", *shards)
	}
	if *fuzz < 0 {
		reject("-fuzz cannot be negative, got %d", *fuzz)
	}
	if *heartbeat < 0 {
		reject("-heartbeat cannot be negative, got %v", *heartbeat)
	}
	if *watchdogTimeout < 0 {
		reject("-watchdog-timeout cannot be negative, got %v", *watchdogTimeout)
	}
	if *engineProfile && *metricsDir == "" {
		reject("-engine-profile needs -metrics for somewhere to write the profiles")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "csv", "metrics", "trace":
			if f.Value.String() == "" {
				reject("-%s was set to an empty path; pass a real directory or drop the flag", f.Name)
			}
		}
	})
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "experiments:", msg)
		}
		fmt.Fprintln(os.Stderr, "usage: see experiments -h")
		os.Exit(2)
	}

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Printf("  %-18s %s\n", s.Name, s.Describe)
		}
		return
	}

	if *fuzzSeed != 0 {
		replayFuzz(*fuzzSeed, *flightRec)
		return
	}
	if *fuzz > 0 {
		runFuzz(*fuzz, *seed, *flightRec)
		return
	}

	if *fig != 0 {
		*runName = fmt.Sprintf("fig%d", *fig)
	}
	experiments.SetParallelism(*parallel)
	if *progress {
		// One sink shared by every worker goroutine; SyncWriter keeps the
		// lines whole under -parallel.
		pw := engineobs.NewSyncWriter(os.Stderr)
		experiments.SetProgress(func(format string, args ...any) {
			fmt.Fprintf(pw, "experiments: "+format+"\n", args...)
		})
	}

	cfg := experiments.RunConfig{Seed: *seed, Shards: *shards, Repair: *repair, CheckInvariants: *check}
	if *heartbeat > 0 || *engineProfile || *watchdogTimeout > 0 {
		cfg.Engine = &experiments.EngineOptions{
			Profile:         *engineProfile,
			Heartbeat:       *heartbeat,
			WatchdogTimeout: *watchdogTimeout,
			Dir:             *metricsDir,
			Text:            os.Stderr,
		}
	}
	if *quick {
		cfg.Durations = experiments.Quick
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		cfg.CSVDir = *csvDir
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fatal(err)
		}
		cfg.Metrics = &experiments.MetricsOptions{Dir: *metricsDir}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		cfg.Trace = &experiments.TraceOptions{Dir: *traceDir, FlightRecorder: *flightRec}
	}

	var specs []experiments.Spec
	if *runName == "all" {
		specs = experiments.Registry()
	} else {
		s, ok := experiments.Lookup(*runName)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (valid: %s, all)",
				*runName, strings.Join(experiments.Names(), ", ")))
		}
		specs = []experiments.Spec{s}
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	for _, s := range specs {
		start := time.Now()
		rep, err := s.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.Name, err))
		}
		for _, t := range rep.Tables() {
			printTable(t, start)
		}
	}

	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// runFuzz runs a fuzzing campaign of n randomized scenarios. Any
// violation prints with the scenario's replay seed and exits nonzero.
func runFuzz(n int, seed int64, flightRec bool) {
	cfg := fuzzer.Config{
		Runs: n,
		Seed: seed,
		Log:  func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	if flightRec {
		cfg.FlightRecorder = os.Stderr
	}
	res := fuzzer.Run(cfg)
	if err := res.Err(); err != nil {
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, f.String())
		}
		fatal(err)
	}
	fmt.Printf("fuzz: %d scenarios, 0 violations\n", res.Runs)
}

// replayFuzz re-runs the single scenario identified by seed and reports
// every violation the oracle records. With the flight recorder armed, each
// violation also dumps the causal trail of the implicated packet.
func replayFuzz(seed int64, flightRec bool) {
	cfg := fuzzer.Config{}
	if flightRec {
		cfg.FlightRecorder = os.Stderr
	}
	desc, c := fuzzer.RunOne(seed, cfg)
	fmt.Printf("seed %d: %s\n", seed, desc)
	if c.Total() == 0 {
		fmt.Println("no violations")
		return
	}
	for _, v := range c.Violations() {
		fmt.Fprintln(os.Stderr, "  "+v.String())
	}
	fatal(fmt.Errorf("%d violation(s)", c.Total()))
}

func printTable(t *experiments.Table, start time.Time) {
	if err := t.Fprint(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("(%s in %.1fs)\n\n", firstWord(t.Title), time.Since(start).Seconds())
}

func firstWord(s string) string {
	if i := strings.IndexAny(s, " :"); i > 0 {
		return s[:i]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
