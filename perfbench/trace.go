package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// The traced run times each layer from outside the simulator: it wraps the
// sender, the sender's Transmit function and the routers it hands to a
// flow, attaches a netem.Observer to every network and a
// psim.EngineObserver to the parallel engine. Per-call timings are folded
// into counters; only cells, engine windows and 1-sim-s slices become spans.

var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// layerStats accumulates per-call layer counters. One instance is owned by
// each goroutine that runs simulation events (one per psim shard), so the
// wrappers need no locking; instances are merged after the run.
type layerStats struct {
	prOnAckCalls, prOnAckSelfNs, prInflightSum int64
	rfcOnAckCalls, rfcOnAckSelfNs              int64
	txCalls, txNs                              int64
	routeCalls, routeNs                        int64

	pktsSent, hops, drops int64
	queueWait             sim.Time

	depthSamples, depthSum, depthMax int64
}

func (s *layerStats) add(o *layerStats) {
	s.prOnAckCalls += o.prOnAckCalls
	s.prOnAckSelfNs += o.prOnAckSelfNs
	s.prInflightSum += o.prInflightSum
	s.rfcOnAckCalls += o.rfcOnAckCalls
	s.rfcOnAckSelfNs += o.rfcOnAckSelfNs
	s.txCalls += o.txCalls
	s.txNs += o.txNs
	s.routeCalls += o.routeCalls
	s.routeNs += o.routeNs
	s.pktsSent += o.pktsSent
	s.hops += o.hops
	s.drops += o.drops
	s.queueWait += o.queueWait
	s.depthSamples += o.depthSamples
	s.depthSum += o.depthSum
	s.depthMax = max(s.depthMax, o.depthMax)
}

// sampleDepth records the scheduler's pending-event count.
func (s *layerStats) sampleDepth(sched *sim.Scheduler) {
	n := int64(sched.Len())
	s.depthSamples++
	s.depthSum += n
	s.depthMax = max(s.depthMax, n)
}

// timedSender wraps a tcp.Sender and times OnAck, minus the Transmit calls
// nested in it. TCP-PR senders are counted apart from the RFC senders.
type timedSender struct {
	tcp.Sender
	pr *core.Sender
	st *layerStats
}

func (w *timedSender) OnAck(a tcp.Ack) {
	if w.pr != nil {
		w.st.prInflightSum += int64(w.pr.InFlight())
	}
	tx0 := w.st.txNs
	t0 := nanotime()
	w.Sender.OnAck(a)
	self := nanotime() - t0 - (w.st.txNs - tx0)
	if w.pr != nil {
		w.st.prOnAckCalls++
		w.st.prOnAckSelfNs += self
	} else {
		w.st.rfcOnAckCalls++
		w.st.rfcOnAckSelfNs += self
	}
}

// timedFactory wraps a sender factory: the environment's Transmit is
// timed, and so is the sender it builds.
func timedFactory(mk workload.SenderFactory, st *layerStats) workload.SenderFactory {
	return func(env tcp.SenderEnv) tcp.Sender {
		transmit := env.Transmit
		env.Transmit = func(seg tcp.Seg) bool {
			t0 := nanotime()
			ok := transmit(seg)
			st.txNs += nanotime() - t0
			st.txCalls++
			return ok
		}
		s := mk(env)
		pr, _ := s.(*core.Sender)
		return &timedSender{Sender: s, pr: pr, st: st}
	}
}

// timedRouter times Route calls.
type timedRouter struct {
	r  routing.Router
	st *layerStats
}

func (t timedRouter) Route() []*netem.Link {
	t0 := nanotime()
	p := t.r.Route()
	t.st.routeNs += nanotime() - t0
	t.st.routeCalls++
	return p
}

// netObserver counts packet lifecycle events on one network.
type netObserver struct{ st *layerStats }

func (o netObserver) PacketSent(*netem.Packet) { o.st.pktsSent++ }

func (o netObserver) PacketEnqueued(l *netem.Link, _ *netem.Packet, txStart, _, _ sim.Time) {
	o.st.hops++
	o.st.queueWait += txStart - l.Scheduler().Now()
}

func (o netObserver) PacketDequeued(*netem.Link, *netem.Packet)  {}
func (o netObserver) PacketDelivered(*netem.Link, *netem.Packet) {}
func (o netObserver) PacketDuplicated(*netem.Link, *netem.Packet, *netem.Packet, sim.Time, sim.Time) {
}
func (o netObserver) PacketDropped(*netem.Link, *netem.Packet, netem.DropCause) { o.st.drops++ }

// custody sums the reorder and repair custody counters of a network's links.
type custody struct {
	reorderHeld, repairHeld, repairTimedOut, repairEvicted uint64
}

func (c *custody) addNetwork(n *netem.Network) {
	for _, l := range n.Links() {
		st := l.Stats()
		c.reorderHeld += st.ReorderHeld
		c.repairHeld += st.RepairHeld
		if b := l.Repair(); b != nil {
			bs := b.Stats()
			c.repairTimedOut += bs.TimedOut
			c.repairEvicted += bs.Evicted
		}
	}
}

// span is one traced interval: a pass, a sweep cell, a psim window or a
// 1-sim-s slice. Times are wall nanoseconds since process start.
type span struct {
	id, parent int
	name       string
	start, end int64
}

// spans keeps every span in memory until the run ends. Only the
// coordinating goroutine records spans.
type spans struct{ list []span }

// begin opens a span and returns its id.
func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{id: len(s.list) + 1, parent: parent, name: name, start: nanotime()})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) { s.list[id-1].end = nanotime() }

// write stores the spans as TSV (id, parent, name, start_ns, end_ns).
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, sp := range s.list {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", sp.id, sp.parent, sp.name, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depthTick is the simulated interval between queue-depth samples on a
// sequential scheduler. Slicing RunUntil does not change the event order.
const depthTick = 10 * time.Millisecond

// runSliced runs sched to horizon in depthTick steps, sampling the event
// queue depth after each step and opening a span per simulated second.
func runSliced(sched *sim.Scheduler, horizon time.Duration, st *layerStats, sp *spans, parent int) {
	slice := 0
	for t := depthTick; t <= horizon; t += depthTick {
		if t%time.Second == depthTick {
			slice = sp.begin(fmt.Sprintf("slice %ds", int(t/time.Second)), parent)
		}
		sched.RunUntil(t)
		st.sampleDepth(sched)
		if t%time.Second == 0 || t+depthTick > horizon {
			sp.end(slice)
		}
	}
	sched.RunUntil(horizon)
}

// engineTracer is the psim.EngineObserver of a traced city run: it feeds
// the engine profiler, opens a span per barrier window and samples every
// shard's queue depth at each barrier, while all shards are idle.
type engineTracer struct {
	next   psim.EngineObserver
	shards []*psim.Shard
	stats  []*layerStats
	sp     *spans
	parent int
	cur    int
}

func (e *engineTracer) WindowStart(window int, start, end sim.Time) {
	e.cur = e.sp.begin(fmt.Sprintf("window %d", window), e.parent)
	e.next.WindowStart(window, start, end)
}

func (e *engineTracer) ShardWindow(shard, window int, events uint64, outbox int, execute, wait time.Duration) {
	e.next.ShardWindow(shard, window, events, outbox, execute, wait)
}

func (e *engineTracer) WindowEnd(window int, end sim.Time, messages int, exchange time.Duration) {
	e.next.WindowEnd(window, end, messages, exchange)
	for i, sh := range e.shards {
		e.stats[i].sampleDepth(sh.Sched)
	}
	e.sp.end(e.cur)
}
