package main

import (
	"fmt"
	"strings"
	"time"

	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

const (
	prFlows     = 4
	prHorizon   = 300 * time.Second
	prLinkDelay = 60 * time.Millisecond
	prStagger   = 2 * time.Second
)

// prInputs are the generated inputs of one pr-multipath run: each flow's
// per-direction routing seed and its start time.
type prInputs struct {
	fwdSeed, revSeed [prFlows]int64
	start            [prFlows]sim.Time
}

func newPRInputs(seed int64) prInputs {
	var in prInputs
	jitter := sim.NewRand(sim.SplitSeed(seed, 100))
	starts := workload.StaggeredStarts(prFlows, 0, prStagger)
	for i := range in.start {
		in.fwdSeed[i] = sim.SplitSeed(seed, int64(2*i+1))
		in.revSeed[i] = sim.SplitSeed(seed, int64(2*i+2))
		in.start[i] = starts[i] + sim.Time(jitter.Int63n(int64(prStagger/prFlows)))
	}
	return in
}

// prRun is one built pr-multipath simulation.
type prRun struct {
	sched *sim.Scheduler
	net   *netem.Network
	flows []*tcp.Flow
	check *invariant.Checker
}

// buildPR wires four TCP-PR flows over the 3-path topology with ε = 0
// routing. armed attaches the conformance checker; a non-nil st wraps
// every sender, Transmit and router and observes the network.
func buildPR(in prInputs, armed bool, st *layerStats) *prRun {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, prLinkDelay)
	r := &prRun{sched: sched, net: m.Net}
	if armed {
		r.check = invariant.New(sched)
		r.check.AttachNetwork(m.Net)
	}
	mk := workload.Factory(workload.TCPPR, workload.PRParams{})
	if st != nil {
		m.Net.SetObserver(netObserver{st})
		mk = timedFactory(mk, st)
	}
	for i := 0; i < prFlows; i++ {
		var fwd, rev routing.Router = routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(in.fwdSeed[i])),
			routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(in.revSeed[i]))
		if st != nil {
			fwd, rev = timedRouter{fwd, st}, timedRouter{rev, st}
		}
		f := tcp.NewFlow(m.Net, i+1, m.Src, m.Dst, fwd, rev)
		f.Attach(mk)
		if armed {
			r.check.AttachFlow(f, workload.TCPPR)
		}
		f.Start(in.start[i])
		r.flows = append(r.flows, f)
	}
	return r
}

// finish closes the checker and returns the run's violation count.
func (r *prRun) finish() int {
	if r.check == nil {
		return 0
	}
	r.check.Finish()
	return r.check.Total()
}

func (r *prRun) digest() string { return flowsDigest(r.flows) }

// flowsDigest covers each flow's unique bytes and retransmissions.
func flowsDigest(flows []*tcp.Flow) string {
	var b strings.Builder
	for _, f := range flows {
		fmt.Fprintf(&b, "flow %d unique=%d retx=%d\n", f.ID, f.UniqueBytes(), f.DataRetx())
	}
	return hashString(b.String())
}

// runPRMultipath is the paper's core scenario (Fig 5/6): persistent
// reordering keeps every sender's per-packet loss timers pending, so the
// event heap is deep and core.Sender.OnAck walks a large in-flight set on
// each ACK. psim, reorder models, repair boxes and the experiments runner
// are idle.
func runPRMultipath(r *runner) {
	in := newPRInputs(r.seed)
	r.setupSamples(func() { buildPR(in, false, nil) })
	// run builds and runs one untraced simulation; events receives the
	// event count of the last unarmed one.
	var events uint64
	run := func(armed bool) opResult {
		p := buildPR(in, armed, nil)
		p.sched.RunUntil(prHorizon)
		if !armed {
			events = p.sched.Processed()
		}
		return opResult{digests: []string{p.digest()}, violations: p.finish()}
	}
	if !r.trace {
		r.measure(prHorizon.Seconds(), func() opResult { return run(false) }, func() opResult { return run(true) })
		return
	}

	lm := &layerMetrics{st: &layerStats{}, flowsStarted: prFlows}
	ref, plain := r.armedPasses(lm, func() opResult { return run(true) }, func() opResult { return run(false) })
	lm.plain, lm.events = plain, events
	lm.tracedWall = r.pass("traced", func(id int) {
		p := buildPR(in, false, lm.st)
		runSliced(p.sched, prHorizon, lm.st, &r.spans, id)
		r.record("traced", opResult{digests: []string{p.digest()}}, ref)
		lm.cust.addNetwork(p.net)
		for _, f := range p.flows {
			lm.addFlow(f, true)
		}
	}).wall
	r.layerMetrics(lm)
}
