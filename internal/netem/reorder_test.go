package netem

import (
	"testing"
	"time"

	"tcppr/internal/sim"
)

// reorderRun pushes n spaced packets through a one-hop link carrying the
// given reorder model and returns the packet IDs in arrival order.
func reorderRun(t *testing.T, model func(l *Link), n int, gap time.Duration) ([]uint64, LinkStats, *Link) {
	t.Helper()
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l := net.AddLink("a", "b", 10_000_000, time.Millisecond, n+10)
	model(l)
	var order []uint64
	net.Node("b").Handle(1, func(p *Packet) { order = append(order, p.ID) })
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(gap)
		s.At(at, func() {
			p := net.NewPacket()
			p.Flow, p.Size, p.Path = 1, 1000, []*Link{l}
			if !net.Send(p) {
				t.Fatal("send rejected")
			}
		})
	}
	s.Run()
	return order, l.Stats(), l
}

// displacement returns, for each arrival, how many later-sent packets
// (larger ID) arrived before it — the per-packet reorder extent.
func displacement(order []uint64) []int {
	out := make([]int, len(order))
	for i, id := range order {
		for _, earlier := range order[:i] {
			if earlier > id {
				out[i]++
			}
		}
	}
	return out
}

// TestSwapDistanceDisplacementBound is the property test the satellite
// asks for: whatever the traffic, no packet's displacement may exceed
// the configured ladder length, and the configured process must actually
// reorder.
func TestSwapDistanceDisplacementBound(t *testing.T) {
	probs := []float64{0.4, 0.3, 0.2, 0.1}
	for seed := int64(1); seed <= 5; seed++ {
		m := NewSwapDistance(probs, 0, sim.NewRand(seed))
		order, st, l := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 400, time.Millisecond)
		if len(order) != 400 {
			t.Fatalf("seed %d: delivered %d of 400 packets", seed, len(order))
		}
		maxd, reordered := 0, 0
		for _, d := range displacement(order) {
			if d > 0 {
				reordered++
			}
			if d > maxd {
				maxd = d
			}
		}
		if maxd > m.MaxDisplacement() {
			t.Errorf("seed %d: displacement %d exceeds bound %d", seed, maxd, m.MaxDisplacement())
		}
		if reordered == 0 {
			t.Errorf("seed %d: 40%% swap model reordered nothing", seed)
		}
		if st.ReorderHeld != st.ReorderReleased {
			t.Errorf("seed %d: custody ledger held=%d released=%d", seed, st.ReorderHeld, st.ReorderReleased)
		}
		if l.ReorderHeldNow() != 0 {
			t.Errorf("seed %d: %d packets still in custody after drain", seed, l.ReorderHeldNow())
		}
	}
}

// TestSwapDistanceDeterministic: same (seed, model) ⇒ identical arrival
// order.
func TestSwapDistanceDeterministic(t *testing.T) {
	run := func() []uint64 {
		m := NewSwapDistance([]float64{0.3, 0.2, 0.1}, 0, sim.NewRand(7))
		order, _, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 200, time.Millisecond)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSwapDistanceMaxHoldReleasesLastPacket: a hold with no successors
// to slip behind must resolve via the hold-cap timer, not strand the
// packet.
func TestSwapDistanceMaxHoldReleasesLastPacket(t *testing.T) {
	// Probability 1 at distance 1: the first packet is always held, and
	// no second packet ever comes.
	m := NewSwapDistance([]float64{1}, 10*time.Millisecond, sim.NewRand(1))
	order, st, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 1, time.Millisecond)
	if len(order) != 1 {
		t.Fatalf("lone held packet never delivered (got %d arrivals)", len(order))
	}
	if st.ReorderHeld != 1 || st.ReorderReleased != 1 {
		t.Fatalf("ledger held=%d released=%d, want 1/1", st.ReorderHeld, st.ReorderReleased)
	}
}

// TestCoalesceReversesBatches: a full batch drains newest-first; the
// remainder drains on the deadline. Every packet is conserved.
func TestCoalesceReversesBatches(t *testing.T) {
	m := NewCoalesce(4, 4*time.Millisecond, 10*time.Microsecond, nil)
	order, st, l := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 10, 500*time.Microsecond)
	if len(order) != 10 {
		t.Fatalf("delivered %d of 10 packets", len(order))
	}
	// IDs are 0-based send order: batches {0..3} and {4..7} reverse; the
	// trailing pair {8,9} closes on the deadline, also newest-first.
	want := []uint64{3, 2, 1, 0, 7, 6, 5, 4, 9, 8}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("arrival order %v, want %v", order, want)
		}
	}
	if st.ReorderHeld != st.ReorderReleased || l.ReorderHeldNow() != 0 {
		t.Fatalf("ledger held=%d released=%d heldNow=%d", st.ReorderHeld, st.ReorderReleased, l.ReorderHeldNow())
	}
}

// TestStripeRoundRobinReorders: deterministic striping over unequal
// sub-path delays reorders without custody and without loss.
func TestStripeRoundRobinReorders(t *testing.T) {
	m := NewStripe([]time.Duration{0, 5 * time.Millisecond}, nil)
	order, st, _ := reorderRun(t, func(l *Link) { l.SetReorderModel(m) }, 50, time.Millisecond)
	if len(order) != 50 {
		t.Fatalf("delivered %d of 50 packets", len(order))
	}
	reordered := 0
	for _, d := range displacement(order) {
		if d > 0 {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("striping over +0/+5ms sub-paths reordered nothing")
	}
	if st.ReorderHeld != 0 {
		t.Fatalf("stripe took custody of %d packets, want 0", st.ReorderHeld)
	}
	if st.ReorderDelayed == 0 {
		t.Fatal("stripe detoured nothing (ReorderDelayed = 0)")
	}
}

// TestReorderScenarioCatalog: every canned scenario constructs, and
// lookups fail loudly.
func TestReorderScenarioCatalog(t *testing.T) {
	names := ReorderScenarioNames()
	if len(names) < 4 {
		t.Fatalf("catalog has %d scenarios, want at least none + 3 models", len(names))
	}
	for _, name := range names {
		sc, err := ReorderScenarioByName(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		m := sc.New(sim.NewRand(1))
		if name == "none" && m != nil {
			t.Error("scenario none built a model")
		}
		if name != "none" && m == nil {
			t.Errorf("scenario %q built a nil model", name)
		}
	}
	if _, err := ReorderScenarioByName("bogus"); err == nil {
		t.Fatal("unknown scenario lookup did not error")
	}
}

// TestReorderDetachedZeroAllocs is the hot-path gate the PERFORMANCE
// note cites: with no reorder model installed, steady-state forwarding
// through the reorder-aware enqueue path still allocates nothing.
func TestReorderDetachedZeroAllocs(t *testing.T) {
	s := sim.NewScheduler()
	net := NewNetwork(s)
	l1 := net.AddLink("a", "b", 10_000_000, time.Millisecond, 100)
	l2 := net.AddLink("b", "c", 10_000_000, time.Millisecond, 100)
	net.Node("c").Handle(1, func(*Packet) {})
	if l1.ReorderModel() != nil || l1.Impairment() != nil {
		t.Fatal("fresh link is not detached")
	}
	path := []*Link{l1, l2}
	send := func() {
		p := net.NewPacket()
		p.Flow, p.Size, p.Path = 1, 1000, path
		if !net.Send(p) {
			t.Fatal("send rejected")
		}
		s.Run()
	}
	send() // prime the pools
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("detached reorder path allocates %.1f objects/packet, want 0", allocs)
	}
}
