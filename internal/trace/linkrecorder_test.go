package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// dropCounter is a pre-installed observer counting drops.
type dropCounter struct{ drops int }

func (c *dropCounter) PacketDropped(*netem.Link, *netem.Packet, netem.DropCause)             { c.drops++ }
func (*dropCounter) PacketSent(*netem.Packet)                                                {}
func (*dropCounter) PacketEnqueued(*netem.Link, *netem.Packet, sim.Time, sim.Time, sim.Time) {}
func (*dropCounter) PacketDequeued(*netem.Link, *netem.Packet)                               {}
func (*dropCounter) PacketDelivered(*netem.Link, *netem.Packet)                              {}
func (*dropCounter) PacketDuplicated(_ *netem.Link, _, _ *netem.Packet, _, _ sim.Time)       {}

// TestLinkRecorder drives packets over an overflowing link and checks the
// recorder sees every delivery and every drop, composes with a
// pre-installed observer, and dumps a stable TSV.
func TestLinkRecorder(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.NewNetwork(sched)
	l := net.AddLink("a", "b", int64(8e6), time.Millisecond, 2) // 1ms per 1000B
	pre := &dropCounter{}
	net.SetObserver(pre) // must survive Attach

	rec := NewLinkRecorder(sched)
	rec.Attach(net, l)
	net.Node("b").Handle(1, func(*netem.Packet) {})

	accepted := 0
	for i := 0; i < 8; i++ { // 2-slot queue: most of this burst drops
		if net.Send(&netem.Packet{Flow: 1, Size: 1000, Path: []*netem.Link{l}}) {
			accepted++
		}
	}
	sched.Run()

	if accepted >= 8 {
		t.Fatal("expected queue drops")
	}
	if rec.Drops() != 8-accepted {
		t.Errorf("Drops = %d, want %d", rec.Drops(), 8-accepted)
	}
	if pre.drops != rec.Drops() {
		t.Errorf("pre-installed observer saw %d drops, want %d (composition broken)", pre.drops, rec.Drops())
	}
	deliveries := 0
	for _, e := range rec.Events {
		if e.Link != "a->b" {
			t.Errorf("event link %q, want a->b", e.Link)
		}
		if e.Kind == 'd' {
			deliveries++
		}
	}
	if deliveries != accepted {
		t.Errorf("recorded %d deliveries, want %d", deliveries, accepted)
	}

	var buf bytes.Buffer
	if err := rec.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(rec.Events) {
		t.Errorf("TSV has %d lines, want %d", got, len(rec.Events))
	}
}
