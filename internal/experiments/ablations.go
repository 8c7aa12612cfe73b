package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/metrics"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// AblationBetaConfig parameterizes the §4 heavy-loss β study: the paper
// notes that under extreme loss (>15% drop probability) TCP-SACK gains up
// to ~20% over TCP-PR at β = 10, while 1 < β < 5 stays even.
type AblationBetaConfig struct {
	Betas []float64
	// BandwidthMbps is the bottleneck bandwidth used to induce heavy
	// loss; default 1.2 Mbps with 16 flows.
	BandwidthMbps float64
	Flows         int
	Durations     Durations
	// Invariants, when non-nil, attaches the conformance oracle to every
	// cell and folds violations into the shared summary.
	Invariants *InvariantOptions
}

func (c *AblationBetaConfig) fill() {
	if len(c.Betas) == 0 {
		c.Betas = []float64{1, 2, 3, 5, 10}
	}
	if c.BandwidthMbps == 0 {
		c.BandwidthMbps = 1.2
	}
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
}

// AblationBetaPoint is one β measurement.
type AblationBetaPoint struct {
	Beta     float64
	LossRate float64
	MeanSACK float64
	MeanPR   float64
}

// AblationBetaResult aggregates the β sweep.
type AblationBetaResult struct {
	Config AblationBetaConfig
	Points []AblationBetaPoint
}

// RunAblationBeta reproduces the §4 text observation about β under heavy
// loss. The β values run in parallel across the available CPUs.
func RunAblationBeta(cfg AblationBetaConfig) AblationBetaResult {
	cfg.fill()
	in := instruments{inv: cfg.Invariants}
	points := parallelMap(len(cfg.Betas), func(i int) AblationBetaPoint {
		beta := cfg.Betas[i]
		s := dumbbellScenario(cfg.Flows, topo.Mbps(cfg.BandwidthMbps))
		c := in.open(fmt.Sprintf("ablation-beta_b%g", beta), s.sched, s.net)
		flows := mixedRun(c, s, workload.TCPPR, workload.TCPSACK,
			workload.PRParams{Beta: beta}, cfg.Durations, nil)
		c.finish(metrics.Manifest{})
		meanPR, meanSACK := protocolMeans(flows, normalizedWindows(flows), workload.TCPPR, workload.TCPSACK)
		return AblationBetaPoint{
			Beta: beta, LossRate: s.lossRate(),
			MeanSACK: meanSACK, MeanPR: meanPR,
		}
	})
	return AblationBetaResult{Config: cfg, Points: points}
}

// Table renders the β sweep.
func (r AblationBetaResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation (beta under heavy loss, %g Mbps bottleneck, %d flows)", r.Config.BandwidthMbps, r.Config.Flows),
		Header: []string{"beta", "loss_rate", "mean_norm_TCP-SACK", "mean_norm_TCP-PR"},
	}
	for _, p := range r.Points {
		t.AddRow(f2(p.Beta), f3(p.LossRate), f3(p.MeanSACK), f3(p.MeanPR))
	}
	return t
}

// AblationPRVariant runs one single-flow Fig 5 scenario (ε = 0) with a
// customized TCP-PR configuration and returns goodput in Mbps plus the
// sender's event counters. It backs the memorize-list and send-time-cwnd
// ablations.
func AblationPRVariant(cfg core.Config, delay time.Duration, d Durations, seed int64) (mbps float64, sender *core.Sender) {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, delay)
	fwd := routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(sim.SplitSeed(seed, 1)))
	rev := routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(sim.SplitSeed(seed, 2)))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	var s *core.Sender
	f.Attach(func(env tcp.SenderEnv) tcp.Sender {
		s = core.New(env, cfg)
		return s
	})
	f.Start(0)
	var start, end int64
	sched.At(d.Warm, func() { start = f.UniqueBytes() })
	sched.At(d.Warm+d.Measure, func() { end = f.UniqueBytes() })
	sched.RunUntil(d.Warm + d.Measure)
	return stats.Mbps(stats.Throughput(end-start, d.Measure)), s
}

// AblationBurstResult compares TCP-PR's drop reaction with and without
// the design features the paper highlights, on a lossy dumbbell where
// congestion bursts actually occur.
type AblationBurstResult struct {
	Rows []AblationBurstRow
}

// AblationBurstRow is one configuration's outcome.
type AblationBurstRow struct {
	Name       string
	Mbps       float64
	Halvings   uint64
	BurstDrops uint64
	Extremes   uint64
}

// RunAblationMemorize contrasts normal TCP-PR against one whose memorize
// list never absorbs drops (every drop halves), quantifying the paper's
// "one reaction per burst" design choice.
func RunAblationMemorize(d Durations, inv ...*InvariantOptions) AblationBurstResult {
	return runBurstAblation("ablation-memorize ", d, firstInv(inv), []burstVariant{
		{"memorize (paper)", core.Config{}},
		{"no memorize", core.Config{DisableMemorize: true}},
	})
}

// RunAblationSendCwnd contrasts halving from the cwnd recorded at send
// time (the paper's choice, insensitive to detection delay) against
// halving from the current cwnd.
func RunAblationSendCwnd(d Durations, inv ...*InvariantOptions) AblationBurstResult {
	return runBurstAblation("ablation-sendcwnd ", d, firstInv(inv), []burstVariant{
		{"cwnd at send time (paper)", core.Config{}},
		{"current cwnd", core.Config{HalveFromCurrentCwnd: true}},
	})
}

// burstVariant is one TCP-PR configuration of a burst ablation.
type burstVariant struct {
	name string
	cfg  core.Config
}

// runBurstAblation runs each variant as a single TCP-PR flow on a
// small-buffer dumbbell that produces multi-drop congestion events, in
// parallel, and reports goodput plus the sender's drop-reaction counters.
func runBurstAblation(prefix string, d Durations, inv *InvariantOptions, variants []burstVariant) AblationBurstResult {
	in := instruments{inv: inv}
	rows := parallelMap(len(variants), func(i int) AblationBurstRow {
		v := variants[i]
		sched := sim.NewScheduler()
		db := topo.NewDumbbell(sched, topo.DumbbellConfig{
			Hosts: 1, BottleneckBW: topo.Mbps(8), Queue: 20,
		})
		c := in.open(prefix+v.name, sched, db.Net)
		f := singleFlow(db)
		var s *core.Sender
		f.Attach(func(env tcp.SenderEnv) tcp.Sender {
			s = core.New(env, v.cfg)
			return s
		})
		f.Start(0)
		c.attach(f, workload.TCPPR)
		var start, end int64
		sched.At(d.Warm, func() { start = f.UniqueBytes() })
		sched.At(d.Warm+d.Measure, func() { end = f.UniqueBytes() })
		sched.RunUntil(d.Warm + d.Measure)
		c.finish(metrics.Manifest{})
		return AblationBurstRow{
			Name:       v.name,
			Mbps:       stats.Mbps(stats.Throughput(end-start, d.Measure)),
			Halvings:   s.Halvings,
			BurstDrops: s.BurstDrops,
			Extremes:   s.ExtremeEvents,
		}
	})
	return AblationBurstResult{Rows: rows}
}

// RunAblationHoleMode contrasts TCP-PR's three hole policies (see
// core.HoleMode) in the fairness setting where they differ most: mixed
// TCP-PR/TCP-SACK flows on a dumbbell. It quantifies the DESIGN.md
// resolution-6 measurement.
func RunAblationHoleMode(d Durations, inv ...*InvariantOptions) *Table {
	in := instruments{inv: firstInv(inv)}
	modes := []core.HoleMode{core.HoleThrottled, core.HoleFreeze, core.HoleFullClock}
	rows := parallelMap(len(modes), func(k int) []string {
		mode := modes[k]
		s := dumbbellScenario(16, 0)
		c := in.open("ablation-holemode_"+mode.String(), s.sched, s.net)
		starts := workload.StaggeredStarts(16, 0, 5*time.Second)
		flows := make([]*workload.Flow, 0, 16)
		for i, slot := range s.slots {
			f := tcp.NewFlow(s.net, i+1, slot.src, slot.dst, slot.fwd, slot.rev)
			if i%2 == 0 {
				f.Attach(func(env tcp.SenderEnv) tcp.Sender {
					return core.New(env, core.Config{Hole: mode})
				})
				f.Start(starts[i])
				flows = append(flows, &workload.Flow{Flow: f, Protocol: workload.TCPPR})
			} else {
				flows = append(flows, workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, starts[i]))
			}
		}
		c.measure(flows...)
		for _, f := range flows {
			f.MarkWindow(s.sched, d.Warm, d.Warm+d.Measure)
		}
		s.sched.RunUntil(d.Warm + d.Measure)
		c.finish(metrics.Manifest{})
		meanPR, meanSACK := protocolMeans(flows, normalizedWindows(flows), workload.TCPPR, workload.TCPSACK)
		return []string{mode.String(), f3(meanPR), f3(meanSACK)}
	})
	return &Table{
		Title:  "Ablation: TCP-PR hole policy (8 PR + 8 SACK flows, dumbbell)",
		Header: []string{"policy", "mean_norm_TCP-PR", "mean_norm_TCP-SACK"},
		Rows:   rows,
	}
}

// Table renders a burst-ablation result.
func (r AblationBurstResult) Table(title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"variant", "mbps", "halvings", "burst_drops", "extreme_events"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, f2(row.Mbps), fmt.Sprint(row.Halvings),
			fmt.Sprint(row.BurstDrops), fmt.Sprint(row.Extremes))
	}
	return t
}
