package integration

import (
	"testing"
	"time"

	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/span"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// counter is an observer counting hand-offs and losses.
type counter struct{ delivered, dropped int }

func (c *counter) PacketDelivered(*netem.Link, *netem.Packet)                    { c.delivered++ }
func (c *counter) PacketDropped(*netem.Link, *netem.Packet, netem.DropCause)     { c.dropped++ }
func (*counter) PacketSent(*netem.Packet)                                        {}
func (*counter) PacketEnqueued(_ *netem.Link, _ *netem.Packet, _, _, _ sim.Time) {}
func (*counter) PacketDequeued(*netem.Link, *netem.Packet)                       {}
func (*counter) PacketDuplicated(_ *netem.Link, _, _ *netem.Packet, _, _ sim.Time) {
}

// TestObserverSeamComposition attaches a plain observer, the invariant
// checker, a link recorder and the span collector to one network through
// the single observer seam, in that order, and checks that each attach
// leaves the earlier ones in place and every one of them sees every
// delivery and every drop.
func TestObserverSeamComposition(t *testing.T) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1, BottleneckBW: topo.Mbps(2), Queue: 5})
	pre := &counter{}
	d.Net.SetObserver(pre)
	check := invariant.New(sched)
	check.AttachNetwork(d.Net)
	rec := trace.NewLinkRecorder(sched)
	for _, l := range d.Net.Links() {
		rec.Attach(d.Net, l)
	}
	col := span.New(sched, 1<<20)
	col.AttachNetwork(d.Net)

	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	workload.NewFlow(f, workload.NewReno, workload.PRParams{}, 0)
	check.AttachFlow(f, workload.NewReno)
	col.AttachFlow(f, workload.NewReno)
	sched.RunUntil(5 * time.Second)
	check.Finish()

	var delivered, dropped int
	for _, l := range d.Net.Links() {
		st := l.Stats()
		delivered += int(st.Delivered)
		dropped += int(st.Dropped + st.REDDropped + st.RandomDropped + st.BlackoutDropped +
			st.Corrupted + st.HostDownDropped + st.RepairDropped)
	}
	if dropped == 0 {
		t.Fatal("no drops on a 5-packet queue; test is vacuous")
	}
	if pre.delivered != delivered || pre.dropped != dropped {
		t.Errorf("pre-installed observer saw %d/%d deliveries/drops, links report %d/%d",
			pre.delivered, pre.dropped, delivered, dropped)
	}
	if err := check.Err(); err != nil {
		t.Errorf("checker: %v", err)
	}
	var recDelivered int
	for _, e := range rec.Events {
		if e.Kind == 'd' {
			recDelivered++
		}
	}
	if recDelivered != delivered || rec.Drops() != dropped {
		t.Errorf("link recorder saw %d/%d deliveries/drops, links report %d/%d",
			recDelivered, rec.Drops(), delivered, dropped)
	}
	if col.Overwritten() != 0 {
		t.Fatalf("span ring overflowed (%d events lost)", col.Overwritten())
	}
	var spanDelivered, spanDropped int
	for _, e := range col.Events() {
		switch e.Kind {
		case span.Deliver:
			spanDelivered++
		case span.Drop:
			spanDropped++
		}
	}
	if spanDelivered != delivered || spanDropped != dropped {
		t.Errorf("span collector saw %d/%d deliveries/drops, links report %d/%d",
			spanDelivered, spanDropped, delivered, dropped)
	}
}

// TestObserverSeamSpanFirst: the span collector is notified ahead of the
// checker even when it is attached last, so a violation raised while the
// checker handles an event finds that event already in the ring — the
// flight recorder's trail contains the trigger. Each phantom drop (a
// packet the flow never sent) must reach the checker as a violation.
func TestObserverSeamSpanFirst(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.NewNetwork(sched)
	fwd := net.AddLink("a", "b", int64(8e6), time.Millisecond, 1)
	rev := net.AddLink("b", "a", int64(8e6), time.Millisecond, 1)
	f := tcp.NewFlow(net, 1, net.Node("a"), net.Node("b"),
		routing.Static{Path: []*netem.Link{fwd}}, routing.Static{Path: []*netem.Link{rev}})
	f.Attach(workload.Factory(workload.TCPSACK, workload.PRParams{}))

	check := invariant.New(sched)
	check.AttachNetwork(net)
	check.AttachFlow(f, workload.TCPSACK)
	col := span.New(sched, 64)
	col.AttachNetwork(net)

	var seq int64
	violations := 0
	check.OnViolation = func(invariant.Violation) {
		violations++
		last := col.Tail(1)
		if len(last) != 1 || last[0].Kind != span.Drop || last[0].Seq != seq {
			t.Errorf("violation %d: ring tail %+v, want the drop of seq %d", violations, last, seq)
		}
	}
	// A one-slot queue at one instant: the first packet is accepted, the
	// data segment and the ACK behind it drop synchronously inside Send,
	// each tripping its own conservation ledger. The clock never runs, so
	// the accepted packet is never delivered.
	for i, payload := range []any{&tcp.Seg{Seq: 100}, &tcp.Seg{Seq: 101}, &tcp.Ack{CumAck: 102}} {
		seq = int64(100 + i)
		p := net.NewPacket()
		p.Flow, p.Size, p.Path, p.Payload = 1, 1000, []*netem.Link{fwd}, payload
		net.Send(p)
	}
	if fwd.Stats().Dropped != 2 {
		t.Fatalf("dropped %d phantom packets, want 2", fwd.Stats().Dropped)
	}
	if violations != 2 {
		t.Errorf("checker raised %d violations, want one per phantom drop (2): %v", violations, check.Err())
	}
}
