package trace

import (
	"fmt"
	"io"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// LinkEvent is one packet-level event observed on a link: a successful
// hand-off to the downstream node ('d') or a loss ('x' — queue overflow,
// random loss, blackout rejection, or corruption; the link's counters
// attribute the cause).
type LinkEvent struct {
	At   sim.Time
	Link string
	Kind byte // 'd' delivered, 'x' dropped
	Flow int
	ID   uint64
	Size int
}

// LinkRecorder captures per-link delivery and drop events as a
// netem.Observer — the link-level counterpart of Recorder's flow-level
// log. Fault experiments use it to see exactly which packets a blackout or
// burst ate, and the determinism tests compare its TSV dump byte-for-byte
// across same-seed runs.
type LinkRecorder struct {
	Events []LinkEvent

	sched *sim.Scheduler
	net   *netem.Network
	links map[*netem.Link]string
	drops int
}

// NewLinkRecorder returns an empty recorder bound to the scheduler whose
// clock timestamps the events.
func NewLinkRecorder(sched *sim.Scheduler) *LinkRecorder {
	return &LinkRecorder{sched: sched, links: make(map[*netem.Link]string)}
}

// Attach starts recording the events of link l of network n. The first
// Attach on a network adds the recorder to its observers, after any
// already installed (which stay attached).
func (r *LinkRecorder) Attach(n *netem.Network, l *netem.Link) {
	if r.net != n {
		r.net = n
		n.SetObserver(netem.Multi(n.Observer(), r))
	}
	r.links[l] = l.String()
}

func (r *LinkRecorder) record(l *netem.Link, p *netem.Packet, kind byte) bool {
	name, ok := r.links[l]
	if ok {
		r.Events = append(r.Events, LinkEvent{
			At: r.sched.Now(), Link: name, Kind: kind, Flow: p.Flow, ID: p.ID, Size: p.Size})
	}
	return ok
}

// PacketDelivered records a hand-off on an attached link.
func (r *LinkRecorder) PacketDelivered(l *netem.Link, p *netem.Packet) { r.record(l, p, 'd') }

// PacketDropped records a loss on an attached link.
func (r *LinkRecorder) PacketDropped(l *netem.Link, p *netem.Packet, _ netem.DropCause) {
	if r.record(l, p, 'x') {
		r.drops++
	}
}

// PacketSent, PacketEnqueued, PacketDequeued and PacketDuplicated complete
// the netem.Observer interface; the recorder logs hand-offs and losses
// only.
func (r *LinkRecorder) PacketSent(*netem.Packet)                                          {}
func (r *LinkRecorder) PacketEnqueued(_ *netem.Link, _ *netem.Packet, _, _, _ sim.Time)   {}
func (r *LinkRecorder) PacketDequeued(*netem.Link, *netem.Packet)                         {}
func (r *LinkRecorder) PacketDuplicated(_ *netem.Link, _, _ *netem.Packet, _, _ sim.Time) {}

// Drops returns the number of loss events recorded across all attached
// links.
func (r *LinkRecorder) Drops() int { return r.drops }

// WriteTSV dumps the event log, one line per event:
// time kind link flow id size.
func (r *LinkRecorder) WriteTSV(w io.Writer) error {
	for _, e := range r.Events {
		if _, err := fmt.Fprintf(w, "%.6f\t%c\t%s\t%d\t%d\t%d\n",
			time.Duration(e.At).Seconds(), e.Kind, e.Link, e.Flow, e.ID, e.Size); err != nil {
			return err
		}
	}
	return nil
}
