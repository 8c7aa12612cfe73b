package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// hookObs adapts optional delivery and drop callbacks to the Observer
// interface for tests; the other lifecycle events are ignored.
type hookObs struct {
	deliver func(*Link, *Packet)
	drop    func(*Link, *Packet, DropCause)
}

func (hookObs) PacketSent(*Packet)                                          {}
func (hookObs) PacketEnqueued(*Link, *Packet, sim.Time, sim.Time, sim.Time) {}
func (hookObs) PacketDequeued(*Link, *Packet)                               {}
func (o hookObs) PacketDelivered(l *Link, p *Packet) {
	if o.deliver != nil {
		o.deliver(l, p)
	}
}
func (o hookObs) PacketDropped(l *Link, p *Packet, c DropCause) {
	if o.drop != nil {
		o.drop(l, p, c)
	}
}
func (hookObs) PacketDuplicated(*Link, *Packet, *Packet, sim.Time, sim.Time) {}

// TestMultiShape pins the combinator's shape: nil parts vanish, a single
// survivor comes back unwrapped, and nested combinations flatten.
func TestMultiShape(t *testing.T) {
	if got := Multi(); got != nil {
		t.Errorf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Errorf("Multi(nil, nil) = %v, want nil", got)
	}
	a, b, c := &recordObs{}, &recordObs{}, &recordObs{}
	if got := Multi(nil, a, nil); got != Observer(a) {
		t.Errorf("Multi(nil, a, nil) = %T, want a unwrapped", got)
	}
	m, ok := Multi(Multi(a, b), nil, c).(multi)
	if !ok || len(m) != 3 || m[0] != Observer(a) || m[1] != Observer(b) || m[2] != Observer(c) {
		t.Errorf("nested Multi = %#v, want flat [a b c]", m)
	}
}

// TestMultiFansOutInOrder: every part sees every event, in argument order,
// and a second observer composed through Multi(n.Observer(), o) leaves the
// first attached.
func TestMultiFansOutInOrder(t *testing.T) {
	s, net := newTestNet()
	l := net.AddLink("a", "b", mbps(100), 0, 2)
	net.Node("b").Handle(1, func(*Packet) {})
	var order []string
	first := hookObs{
		deliver: func(*Link, *Packet) { order = append(order, "first-deliver") },
		drop:    func(*Link, *Packet, DropCause) { order = append(order, "first-drop") },
	}
	second := hookObs{
		deliver: func(*Link, *Packet) { order = append(order, "second-deliver") },
		drop:    func(*Link, *Packet, DropCause) { order = append(order, "second-drop") },
	}
	rec := &recordObs{}
	net.SetObserver(first)
	net.SetObserver(Multi(net.Observer(), second))
	net.SetObserver(Multi(net.Observer(), rec))

	accepted := 0
	for i := 0; i < 5; i++ { // 2-slot queue: three drop
		if net.Send(&Packet{Flow: 1, Size: 1000, Path: []*Link{l}}) {
			accepted++
		}
	}
	s.Run()
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2", accepted)
	}
	want := []string{
		"first-drop", "second-drop", "first-drop", "second-drop", "first-drop", "second-drop",
		"first-deliver", "second-deliver", "first-deliver", "second-deliver",
	}
	if len(order) != len(want) {
		t.Fatalf("events %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("events %v, want %v", order, want)
		}
	}
	if rec.sent != 5 || rec.enq != 2 || rec.deq != 2 || rec.del != 2 || len(rec.drops) != 3 {
		t.Errorf("third observer saw sent=%d enq=%d deq=%d del=%d drops=%d, want 5/2/2/2/3",
			rec.sent, rec.enq, rec.deq, rec.del, len(rec.drops))
	}
	// A link added after composition inherits the whole chain.
	l2 := net.AddLink("b", "c", mbps(100), time.Millisecond, 2)
	if l2.obs == nil {
		t.Fatal("link added later did not inherit the observer")
	}
	if _, ok := l2.obs.(multi); !ok {
		t.Errorf("late link observer = %T, want the composed chain", l2.obs)
	}
}

// repairRec records middlebox actions; it is an Observer that also
// implements RepairObserver.
type repairRec struct {
	hookObs
	actions []RepairAction
}

func (r *repairRec) PacketRepair(_ *Link, _ *Packet, a RepairAction, _ sim.Time) {
	r.actions = append(r.actions, a)
}

// TestMultiForwardsRepairEvents: composing a RepairObserver with another
// observer must not hide the middlebox events from it.
func TestMultiForwardsRepairEvents(t *testing.T) {
	sends := []repairSend{{0, 1, 0}, {2 * time.Millisecond, 1, 2}, {4 * time.Millisecond, 1, 1}}
	run := func(wrap func(*repairRec) Observer) []RepairAction {
		rec := &repairRec{}
		repairRun(t, func(l *Link) {
			l.SetRepair(NewRepairBox(RepairConfig{}))
			l.obs = wrap(rec)
		}, sends)
		return rec.actions
	}
	alone := run(func(r *repairRec) Observer { return r })
	composed := run(func(r *repairRec) Observer { return Multi(hookObs{}, r) })
	if len(alone) == 0 {
		t.Fatal("box took no actions; test is vacuous")
	}
	if len(composed) != len(alone) {
		t.Fatalf("composed observer saw %v, alone %v", composed, alone)
	}
	for i := range alone {
		if composed[i] != alone[i] {
			t.Fatalf("composed observer saw %v, alone %v", composed, alone)
		}
	}
}
