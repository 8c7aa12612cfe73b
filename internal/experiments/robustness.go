package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

// RobustnessScenario names one impairment applied to a single-flow
// dumbbell.
type RobustnessScenario string

// The robustness scenarios, each tied to a claim or motivation in the
// paper:
const (
	// ScenarioBaseline is the unimpaired reference.
	ScenarioBaseline RobustnessScenario = "baseline"
	// ScenarioAckLoss drops 10% of ACKs on the reverse path. §3: TCP-PR
	// "is also robust to acknowledgment losses" because it never
	// distinguishes data-path from ACK-path loss.
	ScenarioAckLoss RobustnessScenario = "ack loss 10%"
	// ScenarioDelayedAcks switches the receiver to RFC 1122 delayed
	// ACKs. §3: TCP-PR requires no receiver changes, so it must work
	// with both standard receiver behaviours.
	ScenarioDelayedAcks RobustnessScenario = "delayed ACKs"
	// ScenarioJitter adds ±30 ms independent per-packet delay variation
	// at the bottleneck, the single-path reordering a DiffServ/QoS
	// element introduces (§1's deployment motivation).
	ScenarioJitter RobustnessScenario = "30ms jitter"
	// ScenarioRED replaces the bottleneck's drop-tail queue with RED,
	// changing the loss pattern from bursty to spread-out.
	ScenarioRED RobustnessScenario = "RED queue"
)

// RobustnessScenarios returns the scenario list in display order.
func RobustnessScenarios() []RobustnessScenario {
	return []RobustnessScenario{
		ScenarioBaseline, ScenarioAckLoss, ScenarioDelayedAcks, ScenarioJitter, ScenarioRED,
	}
}

// RobustnessResult is the goodput grid (Mbps) of scenario × protocol.
type RobustnessResult struct {
	Protocols []string
	Rows      map[RobustnessScenario]map[string]float64
	Durations Durations
}

// RunRobustness measures each protocol's single-flow goodput on a 15 Mbps
// dumbbell under each impairment.
func RunRobustness(d Durations, inv ...*InvariantOptions) RobustnessResult {
	in := instruments{inv: firstInv(inv)}
	protos := []string{workload.TCPPR, workload.TCPSACK, workload.NewReno, workload.TDFR}
	var scenarios []string
	for _, sc := range RobustnessScenarios() {
		scenarios = append(scenarios, string(sc))
	}
	// Both axes are fixed lists, so resolving them cannot fail.
	mbps, _ := runMatrix([]axis{
		{scenarios, func(n string) (any, error) { return RobustnessScenario(n), nil }},
		{protos, func(n string) (any, error) { return n, nil }},
	}, func(at []any, _ int) float64 {
		return runRobustnessCell(at[0].(RobustnessScenario), at[1].(string), d, in)
	})
	res := RobustnessResult{
		Protocols: protos,
		Rows:      make(map[RobustnessScenario]map[string]float64),
		Durations: d,
	}
	for i, sc := range RobustnessScenarios() {
		res.Rows[sc] = make(map[string]float64)
		for j, proto := range protos {
			res.Rows[sc][proto] = mbps[i*len(protos)+j]
		}
	}
	return res
}

func runRobustnessCell(sc RobustnessScenario, proto string, d Durations, in instruments) float64 {
	c, db := in.openDumbbell(fmt.Sprintf("robustness %s %s", sc, proto))
	f := singleFlow(db)

	switch sc {
	case ScenarioAckLoss:
		// Drop ACKs on the reverse bottleneck hop.
		db.Net.FindLink("R", "L").SetLoss(0.10, sim.NewRand(17))
	case ScenarioDelayedAcks:
		f.DelayedAcks = true
	case ScenarioJitter:
		db.Bottleneck.SetImpairment(netem.NewJitter(30*time.Millisecond, sim.NewRand(18)))
	case ScenarioRED:
		db.Bottleneck.AttachRED(netem.NewRED(db.Bottleneck.QueueCap, sim.NewRand(19)))
	}

	wf := workload.NewFlow(f, proto, workload.PRParams{}, 0)
	c.measure(wf)
	wf.MarkWindow(c.sched, d.Warm, d.Warm+d.Measure)
	c.sched.RunUntil(d.Warm + d.Measure)
	c.finish(metrics.Manifest{})
	return stats.Mbps(stats.Throughput(wf.WindowBytes(), d.Measure))
}

// Table renders the grid.
func (r RobustnessResult) Table() *Table {
	t := &Table{
		Title:  "Extension: single-flow goodput (Mbps) under receiver/path impairments, 15 Mbps dumbbell",
		Header: append([]string{"scenario"}, r.Protocols...),
	}
	for _, sc := range RobustnessScenarios() {
		row := []string{string(sc)}
		for _, p := range r.Protocols {
			row = append(row, f2(r.Rows[sc][p]))
		}
		t.AddRow(row...)
	}
	return t
}
