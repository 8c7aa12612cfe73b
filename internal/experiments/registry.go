package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// RunConfig is the shared configuration every registered experiment
// accepts. It unifies the knobs the per-figure Run* functions grew
// independently; each Spec maps the fields onto its underlying config and
// ignores what does not apply (documented per field).
type RunConfig struct {
	// Durations sets the simulated warm-up and measurement windows. The
	// zero value selects Full, matching the per-figure configs.
	Durations Durations
	// Metrics, when non-nil, writes per-cell time series and manifests
	// (plus a run aggregate for the figure-grade experiments). Only the
	// experiments that plumb observers honor it: fig2, fig3, fig4, fig6,
	// and the four matrices (faultmatrix, churnmatrix, reordermatrix,
	// repairmatrix).
	Metrics *MetricsOptions
	// CSVDir, when non-empty, is the directory the experiment's raw
	// per-point CSV files are written into, under the same file names the
	// CLI has always used. Empty disables CSV output.
	CSVDir string
	// Seed overrides the experiment's default base seed where one exists
	// (fig6, ext-door, faultmatrix); zero keeps the default. Experiments
	// with hard-wired per-cell seed derivations ignore it.
	Seed int64
	// Smoke trims sweep axes to one or two representative cells so every
	// experiment finishes in test time. It changes which cells run, never
	// how a cell runs — the registry round-trip test uses it to prove
	// each Spec end to end without paying for full sweeps.
	Smoke bool
	// Shards, when positive, pins the sharded-city experiment to exactly
	// that shard count instead of its default {1, 4} scaling sweep. The
	// per-figure experiments run on one scheduler and ignore it.
	Shards int
	// CheckInvariants attaches the internal/invariant conformance oracle
	// to every simulation cell. The run fails with a descriptive error if
	// any cell violates a conservation or protocol-conformance rule. It
	// also arms the event/packet pool ownership checks for the checked
	// cells.
	CheckInvariants bool
	// Repair, when non-empty, pins the repair-middlebox matrix to exactly
	// that repair scenario (a netem.RepairScenario name) instead of its
	// default {none, repair, repair-tight} sweep. Experiments without a
	// middlebox axis ignore it.
	Repair string
	// Engine, when non-nil and enabled, arms the internal/engineobs
	// telemetry stack (per-shard window profiler, live heartbeat, stall
	// watchdog) on the experiments that drive the parallel engine —
	// currently the city scaling sweep; others ignore it.
	Engine *EngineOptions
	// Trace, when non-nil, attaches the internal/span causal tracer to
	// every simulation cell that plumbs it (the four matrices:
	// faultmatrix, churnmatrix, reordermatrix, repairmatrix), exporting
	// per-cell Perfetto traces and span TSVs — plus flight dumps when
	// combined with CheckInvariants and Trace.FlightRecorder. The artifact
	// names are recorded in the cell manifests when Metrics is also set.
	Trace *TraceOptions
}

// invariants returns the shared per-run invariant options (nil when
// checking is off).
func (c RunConfig) invariants() *InvariantOptions {
	if !c.CheckInvariants {
		return nil
	}
	return &InvariantOptions{}
}

// durations resolves the zero value to the paper's full protocol.
func (c RunConfig) durations() Durations {
	if c.Durations == (Durations{}) {
		return Full
	}
	return c.Durations
}

// topologies returns the topology sweep for the fig2/3/4 family.
func (c RunConfig) topologies() []string {
	if c.Smoke {
		return []string{"dumbbell"}
	}
	return []string{"dumbbell", "parkinglot"}
}

// CSVFile is one raw-data export of a Report: the file name the CLI
// writes (no directory) and the table holding the rows.
type CSVFile struct {
	Name  string
	Table *Table
}

// Report is the outcome of one registered experiment run: the printable
// result tables, in display order, and the raw per-point CSV exports
// (already written to RunConfig.CSVDir when that was set).
type Report interface {
	Tables() []*Table
	CSVFiles() []CSVFile
}

// report is the concrete Report every Spec returns.
type report struct {
	tables []*Table
	csvs   []CSVFile
}

func (r report) Tables() []*Table    { return r.tables }
func (r report) CSVFiles() []CSVFile { return r.csvs }

// finish completes a spec run: surface any invariant violations as the
// run's error, fold the metrics aggregate (figure-grade experiments only),
// write the CSV exports, and hand the report back.
func (r report) finish(cfg RunConfig, inv *InvariantOptions, name string, aggregate bool) (Report, error) {
	if err := inv.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if aggregate && cfg.Metrics != nil {
		if err := cfg.Metrics.WriteAggregate(name); err != nil {
			return nil, fmt.Errorf("%s: aggregate: %w", name, err)
		}
	}
	if cfg.CSVDir != "" {
		for _, f := range r.csvs {
			if err := writeCSVFile(filepath.Join(cfg.CSVDir, f.Name), f.Table); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return r, nil
}

func writeCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Spec is one registered experiment: a stable CLI name, a one-line
// description, and a runner accepting the unified RunConfig.
type Spec struct {
	Name     string
	Describe string
	Run      func(RunConfig) (Report, error)
}

// Registry returns the experiment specs in display order — the paper's
// figures first, then the ablations, extensions, and the fault matrix.
// The slice is freshly allocated; callers may reorder it.
func Registry() []Spec {
	return append([]Spec(nil), specs...)
}

// Lookup returns the named spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the registered experiment names in display order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

var specs = []Spec{
	{
		Name:     "fig2",
		Describe: "Fig 2 fairness: TCP-PR vs TCP-SACK normalized throughput across flow counts",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			inv := cfg.invariants()
			for _, topology := range cfg.topologies() {
				c := Fig2Config{Topology: topology, Durations: cfg.durations(), Metrics: cfg.Metrics, Invariants: inv}
				if cfg.Smoke {
					c.FlowCounts = []int{8}
				}
				res := RunFig2(c)
				rep.tables = append(rep.tables, res.Table())
				rep.csvs = append(rep.csvs, CSVFile{"fig2_" + topology + ".csv", res.PerFlowTable()})
			}
			return rep.finish(cfg, inv, "fig2", true)
		},
	},
	{
		Name:     "fig3",
		Describe: "Fig 3 CoV of throughput vs loss rate, repeated over seeds",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			inv := cfg.invariants()
			for _, topology := range cfg.topologies() {
				c := Fig3Config{Topology: topology, Durations: cfg.durations(), Metrics: cfg.Metrics, Invariants: inv}
				if cfg.Smoke {
					c.BandwidthsMbps = []float64{10}
					c.Seeds = 1
					c.Flows = 8
				}
				res := RunFig3(c)
				rep.tables = append(rep.tables, res.MeanTable())
				rep.csvs = append(rep.csvs, CSVFile{"fig3_" + topology + ".csv", res.Table()})
			}
			return rep.finish(cfg, inv, "fig3", true)
		},
	},
	{
		Name:     "fig4",
		Describe: "Fig 4 alpha/beta sensitivity grid against TCP-SACK",
		Run: func(cfg RunConfig) (Report, error) {
			var rep report
			inv := cfg.invariants()
			for _, topology := range cfg.topologies() {
				c := Fig4Config{Topology: topology, Durations: cfg.durations(), Metrics: cfg.Metrics, Invariants: inv}
				if cfg.Smoke {
					c.Alphas = []float64{0.995}
					c.Betas = []float64{3}
					c.Flows = 8
				}
				res := RunFig4(c)
				rep.tables = append(rep.tables, res.Table())
				rep.csvs = append(rep.csvs, CSVFile{"fig4_" + topology + ".csv", res.Table()})
			}
			return rep.finish(cfg, inv, "fig4", true)
		},
	},
	{
		Name:     "fig6",
		Describe: "Fig 6 multipath comparison across protocols, epsilons, and link delays",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := Fig6Config{Durations: cfg.durations(), Seed: cfg.Seed, Metrics: cfg.Metrics, Invariants: inv}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.TCPSACK}
				c.Epsilons = []float64{1}
				c.LinkDelays = []time.Duration{10 * time.Millisecond}
			}
			res := RunFig6(c)
			var rep report
			for i, t := range res.Table() {
				rep.tables = append(rep.tables, t)
				rep.csvs = append(rep.csvs, CSVFile{fmt.Sprintf("fig6_delay%d.csv", i), t})
			}
			return rep.finish(cfg, inv, "fig6", true)
		},
	},
	{
		Name:     "ablation-beta",
		Describe: "Ablation: beta under heavy loss (the paper's §4 note)",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := AblationBetaConfig{Durations: cfg.durations(), Invariants: inv}
			if cfg.Smoke {
				c.Betas = []float64{3}
				c.Flows = 8
			}
			res := RunAblationBeta(c)
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"ablation_beta.csv", res.Table()}},
			}
			return rep.finish(cfg, inv, "ablation-beta", false)
		},
	},
	{
		Name:     "ablation-memorize",
		Describe: "Ablation: memorize list on vs off under burst loss",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			res := RunAblationMemorize(cfg.durations(), inv)
			rep := report{tables: []*Table{
				res.Table("Ablation: memorize list (single flow, lossy dumbbell)"),
			}}
			return rep.finish(cfg, inv, "ablation-memorize", false)
		},
	},
	{
		Name:     "ablation-sendcwnd",
		Describe: "Ablation: halve from send-time cwnd vs current cwnd",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			res := RunAblationSendCwnd(cfg.durations(), inv)
			rep := report{tables: []*Table{
				res.Table("Ablation: halve from send-time cwnd vs current cwnd"),
			}}
			return rep.finish(cfg, inv, "ablation-sendcwnd", false)
		},
	},
	{
		Name:     "ablation-holemode",
		Describe: "Ablation: hole-handling policy while the cumulative ACK is frozen",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			rep := report{tables: []*Table{RunAblationHoleMode(cfg.durations(), inv)}}
			return rep.finish(cfg, inv, "ablation-holemode", false)
		},
	},
	{
		Name:     "ext-threshold",
		Describe: "Extension: loss-detection threshold sweep over a recorded trace",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			t := RunThresholdSweep(cfg.durations(), inv)
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"ext_threshold.csv", t}}}
			return rep.finish(cfg, inv, "ext-threshold", false)
		},
	},
	{
		Name:     "ext-reorder",
		Describe: "Extension: how much reordering each epsilon actually produces",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			t := ReorderTable(RunReorderProfile(cfg.durations(), 0, inv))
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"ext_reorder.csv", t}}}
			return rep.finish(cfg, inv, "ext-reorder", false)
		},
	},
	{
		Name:     "ext-robustness",
		Describe: "Extension: goodput under ACK loss, delayed ACKs, jitter, and RED",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			res := RunRobustness(cfg.durations(), inv)
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"ext_robustness.csv", res.Table()}},
			}
			return rep.finish(cfg, inv, "ext-robustness", false)
		},
	},
	{
		Name:     "ext-door",
		Describe: "Extension: Fig 6 protocol set plus TCP-DOOR and Eifel",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			var res Fig6Result
			if cfg.Smoke {
				res = RunFig6(Fig6Config{
					Protocols:  []string{workload.TCPDOOR, workload.Eifel},
					Epsilons:   []float64{1},
					LinkDelays: []time.Duration{10 * time.Millisecond},
					Durations:  cfg.durations(),
					Seed:       cfg.Seed,
					Invariants: inv,
				})
			} else {
				res = RunExtComparison(cfg.durations(), inv)
			}
			var rep report
			for _, t := range res.Table() {
				t.Title = "Extension: Fig 6 protocol set + TCP-DOOR + Eifel (10 ms links)"
				rep.tables = append(rep.tables, t)
				rep.csvs = append(rep.csvs, CSVFile{"ext_door.csv", t})
			}
			return rep.finish(cfg, inv, "ext-door", false)
		},
	},
	{
		Name:     "city",
		Describe: "Sharded-city scaling: sim-s/wall-s of the parallel engine at 1 vs 4 shards",
		Run: func(cfg RunConfig) (Report, error) {
			c := CityConfig{
				City:            topo.CityConfig{Districts: 8, HostsPerDistrict: 16},
				ShardCounts:     []int{1, 4},
				Seed:            cfg.Seed,
				Horizon:         3 * time.Second,
				SourcesPerHost:  4,
				CheckInvariants: cfg.CheckInvariants,
			}
			if c.Seed == 0 {
				c.Seed = 42
			}
			if cfg.Smoke || cfg.Durations == Quick {
				c.City = topo.CityConfig{Districts: 4, HostsPerDistrict: 4}
				c.Horizon = time.Second
				c.SourcesPerHost = 1
				c.ShardCounts = []int{1, 2}
			}
			if cfg.Shards > 0 {
				c.ShardCounts = []int{cfg.Shards}
			}
			c.Engine = cfg.Engine
			res, err := RunCityScaling(c)
			if err != nil {
				return nil, err
			}
			for i, run := range res.Runs {
				if run.Violations > 0 {
					return nil, fmt.Errorf("city: %d invariant violation(s) at %d shards",
						run.Violations, c.ShardCounts[i])
				}
			}
			t := res.Table()
			rep := report{tables: []*Table{t}, csvs: []CSVFile{{"city_scaling.csv", t}}}
			return rep.finish(cfg, nil, "city", false)
		},
	},
	{
		Name:     "faultmatrix",
		Describe: "Survival matrix: every protocol against every scripted fault scenario",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := FaultMatrixConfig{Seed: cfg.Seed, Metrics: cfg.Metrics, Invariants: inv, Trace: cfg.Trace}
			// The fault matrix measures absolute simulated time, not a
			// warm/measure split; Quick (and Smoke) map to its shortened
			// run the CLI's -quick always used.
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 20 * time.Second
				c.FaultAt = 3 * time.Second
			}
			res, err := RunFaultMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table()},
				csvs:   []CSVFile{{"faultmatrix.csv", res.Table()}},
			}
			return rep.finish(cfg, inv, "faultmatrix", true)
		},
	},
	{
		Name:     "churnmatrix",
		Describe: "Endpoint-churn matrix: retrying workloads against host blip/reboot/flap/death",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := ChurnMatrixConfig{Seed: cfg.Seed, Metrics: cfg.Metrics, Invariants: inv, Trace: cfg.Trace}
			// Like the fault matrix, this measures absolute simulated
			// time; Quick/Smoke trim the run and the protocol set.
			if cfg.Smoke || cfg.Durations == Quick {
				// 90s covers the worst double-cold abort ladder for TCP-PR
				// (~FaultAt + one ~39s cold ladder per attempt plus backoff),
				// so the host-dead column shows real give-ups.
				c.Total = 90 * time.Second
				c.FaultAt = 3 * time.Second
				c.Protocols = []string{workload.TCPPR, workload.TCPSACK, workload.NewReno}
			}
			res, err := RunChurnMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table()},
				csvs: []CSVFile{
					{"churnmatrix.csv", res.Table()},
					{"churnmatrix_events.csv", res.EventsTable()},
				},
			}
			return rep.finish(cfg, inv, "churnmatrix", true)
		},
	},
	{
		Name:     "reordermatrix",
		Describe: "Reordering survival matrix: every protocol against every canned reorder model",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := ReorderMatrixConfig{Seed: cfg.Seed, Metrics: cfg.Metrics, Invariants: inv, Trace: cfg.Trace}
			// Absolute simulated time, like the other matrices. Quick and
			// Smoke trim the run; Smoke also trims the protocol axis to
			// the headline comparison (TCP-PR vs the dupack-threshold
			// baselines the swap models punish).
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 12 * time.Second
			}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.NewReno, workload.TDFR}
			}
			res, err := RunReorderMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table(), res.DisplacementTable()},
				csvs: []CSVFile{
					{"reordermatrix.csv", res.Table()},
					{"reordermatrix_displacement.csv", res.DisplacementTable()},
				},
			}
			return rep.finish(cfg, inv, "reordermatrix", true)
		},
	},
	{
		Name:     "repairmatrix",
		Describe: "Repair-middlebox matrix: reorder models × repair boxes × every protocol",
		Run: func(cfg RunConfig) (Report, error) {
			inv := cfg.invariants()
			c := RepairMatrixConfig{Seed: cfg.Seed, Metrics: cfg.Metrics, Invariants: inv, Trace: cfg.Trace}
			// Absolute simulated time, like the other matrices. Quick and
			// Smoke trim the run; Smoke also trims the protocol and model
			// axes to the headline comparison (the swap model punishes
			// dupack-threshold senders hardest, so it shows the repair
			// effect most clearly).
			if cfg.Smoke || cfg.Durations == Quick {
				c.Total = 12 * time.Second
			}
			if cfg.Smoke {
				c.Protocols = []string{workload.TCPPR, workload.NewReno, workload.TCPSACK}
				c.Models = []string{"swap-high"}
			}
			if cfg.Repair != "" {
				c.Boxes = []string{cfg.Repair}
			}
			res, err := RunRepairMatrix(c)
			if err != nil {
				return nil, err
			}
			rep := report{
				tables: []*Table{res.Table(), res.DetailTable()},
				csvs: []CSVFile{
					{"repairmatrix.csv", res.Table()},
					{"repairmatrix_detail.csv", res.DetailTable()},
				},
			}
			return rep.finish(cfg, inv, "repairmatrix", true)
		},
	},
}
