package main

import (
	"fmt"
	"strings"
	"time"

	"tcppr/internal/experiments"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

const cellHorizon = 12 * time.Second // the spec's Quick run length

// sweepModels is repairmatrix's default reorder-model axis.
var sweepModels = []string{"swap-high", "coalesce", "stripe"}

// sweepSeed is the experiment seed generated from the benchmark seed.
func sweepSeed(seed int64) int64 {
	if s := sim.SplitSeed(seed, 300); s != 0 {
		return s
	}
	return 1
}

// runSpec runs the registered repairmatrix spec at Quick durations and
// returns one digest per cell, in cell order.
func runSpec(seed int64, armed bool) ([]string, error) {
	spec, ok := experiments.Lookup("repairmatrix")
	if !ok {
		return nil, fmt.Errorf("repairmatrix spec not registered")
	}
	rep, err := spec.Run(experiments.RunConfig{Durations: experiments.Quick, CheckInvariants: armed, Seed: seed})
	if err != nil {
		return nil, err
	}
	tables := rep.Tables()
	if len(tables) != 2 || len(tables[0].Rows) != len(tables[1].Rows) {
		return nil, fmt.Errorf("repairmatrix: unexpected report shape")
	}
	out := make([]string, len(tables[0].Rows))
	for i, row := range tables[0].Rows {
		out[i] = cellDigest(row, tables[1].Rows[i])
	}
	return out, nil
}

// cellDigest covers a cell's summary row (goodput, retransmissions,
// residual reordering, custody) and its custody detail row.
func cellDigest(summary, detail []string) string {
	return hashString(strings.Join(summary, ",") + "|" + strings.Join(detail, ","))
}

// sweepCell names one (box, model, protocol) cell and its 1-based index,
// which seeds its reorder model exactly as the spec does.
type sweepCell struct {
	box   netem.RepairScenario
	model netem.ReorderScenario
	proto string
	index int
}

func (c sweepCell) String() string {
	return fmt.Sprintf("cell %d %s/%s/%s", c.index, c.box.Name, c.model.Name, c.proto)
}

func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, bn := range netem.RepairScenarioNames() {
		box, _ := netem.RepairScenarioByName(bn)
		for _, mn := range sweepModels {
			model, err := netem.ReorderScenarioByName(mn)
			if err != nil {
				panic(err)
			}
			for _, p := range workload.AllProtocols() {
				cells = append(cells, sweepCell{box, model, p, len(cells) + 1})
			}
		}
	}
	return cells
}

// cellRun is one built sweep cell: a single flow over the dumbbell whose
// bottleneck carries the cell's reorder model and repair box.
type cellRun struct {
	c     sweepCell
	sched *sim.Scheduler
	db    *topo.Dumbbell
	box   *netem.RepairBox
	flow  *tcp.Flow
	meter *stats.ReorderMeter
}

// buildCell assembles a cell the way the repairmatrix spec does. A non-nil
// st wraps the sender, Transmit and routers and observes the network.
func buildCell(c sweepCell, seed int64, st *layerStats) *cellRun {
	sched := sim.NewScheduler()
	db := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	if st != nil {
		db.Net.SetObserver(netObserver{st})
	}
	if model := c.model.New(sim.NewRand(sim.SplitSeed(seed, int64(c.index)))); model != nil {
		db.Bottleneck.SetReorderModel(model)
	}
	box := c.box.New()
	if box != nil {
		db.Bottleneck.SetRepair(box)
	}
	var fwd, rev routing.Router = routing.Static{Path: db.FwdPath(0)}, routing.Static{Path: db.RevPath(0)}
	mk := workload.Factory(c.proto, workload.PRParams{})
	if st != nil {
		fwd, rev = timedRouter{fwd, st}, timedRouter{rev, st}
		mk = timedFactory(mk, st)
	}
	f := tcp.NewFlow(db.Net, 1, db.Src(0), db.Dst(0), fwd, rev)
	meter := stats.NewReorderMeter(16)
	f.Hooks = tcp.FlowHooks{OnDataRecv: func(seg tcp.Seg, _ sim.Time) {
		if !seg.Retx {
			meter.Observe(seg.Seq)
		}
	}}.Chain(f.Hooks)
	f.Attach(mk)
	f.Start(0)
	return &cellRun{c: c, sched: sched, db: db, box: box, flow: f, meter: meter}
}

// digest renders the cell's outputs in the spec's own table formats.
func (cr *cellRun) digest() string {
	if cr.box != nil {
		cr.box.Flush()
	}
	ls := cr.db.Bottleneck.Stats()
	var bs netem.RepairStats
	var meanHold float64
	if cr.box != nil {
		bs = cr.box.Stats()
		if bs.Released > 0 {
			meanHold = float64(bs.HoldTime.Milliseconds()) / float64(bs.Released)
		}
	}
	c := cr.c
	summary := []string{c.box.Name, c.model.Name, c.proto,
		fmt.Sprintf("%.2f", stats.Mbps(stats.Throughput(cr.flow.UniqueBytes(), cellHorizon))),
		fmt.Sprint(cr.flow.DataRetx()), fmt.Sprintf("%.3f", cr.meter.Rate()),
		fmt.Sprint(cr.meter.KBound()), fmt.Sprint(ls.RepairHeld)}
	detail := []string{c.box.Name, c.model.Name, c.proto,
		fmt.Sprint(ls.RepairHeld), fmt.Sprint(ls.RepairReleased), fmt.Sprint(bs.TimedOut),
		fmt.Sprint(bs.OverflowForwarded), fmt.Sprint(bs.OverflowDropped), fmt.Sprint(bs.Evicted),
		fmt.Sprintf("%.2f", meanHold)}
	return cellDigest(summary, detail)
}

// runRepairSweep runs the registered repairmatrix spec: netem's reorder
// and repair custody instead of plain forwarding, the RFC dupack and SACK
// senders (TCP-PR is 1 of 11 variants), the invariant oracle and the
// experiments runner's cell loop. The event heap stays shallow and psim is
// idle.
func runRepairSweep(r *runner) {
	seed := sweepSeed(r.seed)
	cells := sweepCells()
	sweepSim := float64(len(cells)) * cellHorizon.Seconds()
	// The sweep's set-up is building every cell's topology, reorder model,
	// repair box and flow; the spec interleaves these builds with the runs.
	r.setupSamples(func() {
		for _, c := range cells {
			buildCell(c, seed, nil)
		}
	})

	run := func(armed bool) opResult {
		res := opResult{digests: make([]string, len(cells))}
		got, err := runSpec(seed, armed)
		if err != nil {
			res.err, res.violations = err, 1
			fmt.Sscanf(strings.TrimPrefix(err.Error(), "repairmatrix: "),
				"invariants: %d violation(s)", &res.violations)
			return res
		}
		res.digests = got
		return res
	}
	if !r.trace {
		// Every spec run is invariant-armed; the first is the reference.
		r.measure(sweepSim, func() opResult { return run(true) }, nil)
		return
	}

	lm := &layerMetrics{st: &layerStats{}, flowsStarted: len(cells)}
	ref, _ := r.armedPasses(lm, func() opResult { return run(true) }, func() opResult { return run(false) })

	// The benchmark's own cell loop: untraced with per-cell timing, then
	// traced with per-call layer timing.
	lm.plain = r.pass("cells untraced", func(id int) {
		for _, c := range cells {
			sid := r.spans.begin(c.String(), id)
			cr := buildCell(c, seed, nil)
			cr.sched.RunUntil(cellHorizon)
			d := cr.digest()
			r.spans.end(sid)
			sp := r.spans.list[sid-1]
			lm.cellWall = append(lm.cellWall, seconds(sp.end-sp.start))
			lm.events += cr.sched.Processed()
			r.record("cell", opResult{digests: []string{d}}, ref[c.index-1:c.index])
		}
	})
	lm.tracedWall = r.pass("cells traced", func(id int) {
		for _, c := range cells {
			sid := r.spans.begin(c.String(), id)
			cr := buildCell(c, seed, lm.st)
			runSliced(cr.sched, cellHorizon, lm.st, &r.spans, sid)
			r.record("cell", opResult{digests: []string{cr.digest()}}, ref[c.index-1:c.index])
			r.spans.end(sid)
			lm.cust.addNetwork(cr.db.Net)
			lm.addFlow(cr.flow, c.proto == workload.TCPPR)
		}
	}).wall
	r.layerMetrics(lm)
}
