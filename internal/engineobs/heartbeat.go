package engineobs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"tcppr/internal/sim"
)

// DefaultHeartbeatInterval is the wall-clock cadence when
// HeartbeatConfig.Interval is zero.
const DefaultHeartbeatInterval = 5 * time.Second

// DefaultPulse is the virtual-time cadence of Heartbeat.Attach when none
// is given: often enough that the wall-clock interval check stays
// responsive, rare enough to be invisible in event counts.
const DefaultPulse = 100 * time.Millisecond

// HeartbeatConfig shapes a Heartbeat.
type HeartbeatConfig struct {
	// Interval is the minimum wall-clock gap between emitted beats
	// (default DefaultHeartbeatInterval). Beat may be called far more
	// often; off-interval calls only feed the watchdog.
	Interval time.Duration
	// Horizon, when positive, enables progress percentages and the ETA.
	Horizon sim.Time
	// Label prefixes the text lines (default "heartbeat").
	Label string
	// Text receives human-readable lines (nil: none).
	Text io.Writer
	// JSONL receives one JSON object per beat (nil: none).
	JSONL io.Writer

	// now is the clock seam for tests; nil means time.Now.
	now func() time.Time
}

// Beat is the JSON-lines record one heartbeat emits.
type Beat struct {
	WallSeconds float64 `json:"wall_s"`
	SimSeconds  float64 `json:"sim_s"`
	Events      uint64  `json:"events"`
	// EventsPerSec is the rate over the interval since the previous beat
	// (since start, for the first and final); SimPerWall is the whole-run
	// average, the stable basis for the ETA.
	EventsPerSec float64 `json:"events_per_s"`
	SimPerWall   float64 `json:"sim_per_wall"`
	// Progress is sim/horizon in [0,1]; ETASeconds extrapolates the
	// remaining sim time at the current rate. Both omitted without a
	// horizon.
	Progress   float64 `json:"progress,omitempty"`
	ETASeconds float64 `json:"eta_s,omitempty"`

	HeapMB      float64 `json:"heap_mb"`
	HeapDeltaMB float64 `json:"heap_delta_mb"`
	GCs         uint32  `json:"gcs"`

	// ShardLag, present for multi-scheduler runs, is each shard's
	// events-executed deficit over the interval relative to the busiest
	// shard (0 for the busiest).
	ShardLag []uint64 `json:"shard_lag,omitempty"`

	Final bool `json:"final,omitempty"`
}

// shardSnap is the per-scheduler state captured at each emitted beat for
// the watchdog's diagnostics.
type shardSnap struct {
	events  uint64
	pending int
	now     sim.Time
	nextAt  sim.Time
	hasNext bool
}

// Heartbeat periodically reports run progress. Drive it from whatever
// loop owns the simulation: as a psim EngineObserver (it beats at every
// barrier window) or through Attach's virtual timer on a sequential
// scheduler. Beat itself decides whether the wall-clock interval elapsed,
// so callers never throttle.
//
// All methods are nil-receiver safe, letting callers hold an optional
// *Heartbeat without guards.
type Heartbeat struct {
	cfg    HeartbeatConfig
	scheds []*sim.Scheduler
	wd     *Watchdog

	started    bool
	start      time.Time
	last       time.Time
	lastEvents uint64
	lastShard  []uint64
	lastHeap   uint64
	lastGC     uint32
	beats      int

	// snapMu guards the watchdog-facing snapshot (written at emitted
	// beats on the sim goroutine, read by the watchdog goroutine).
	snapMu   sync.Mutex
	snap     []shardSnap
	snapWall time.Time
}

// NewHeartbeat builds a heartbeat over the run's schedulers (one for a
// sequential run, one per shard for psim).
func NewHeartbeat(cfg HeartbeatConfig, scheds ...*sim.Scheduler) *Heartbeat {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	if cfg.Label == "" {
		cfg.Label = "heartbeat"
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Heartbeat{
		cfg:       cfg,
		scheds:    scheds,
		lastShard: make([]uint64, len(scheds)),
		snap:      make([]shardSnap, len(scheds)),
	}
}

// SetWatchdog feeds every Beat's event total to wd and exposes the
// heartbeat's per-shard snapshot to its diagnostics.
func (h *Heartbeat) SetWatchdog(wd *Watchdog) {
	if h == nil {
		return
	}
	h.wd = wd
}

// Attach arms a self-rearming virtual-time pulse on sched calling Beat
// every `every` of simulated time (<= 0: DefaultPulse). This is the
// sequential-engine hookup: the pulse events ride the ordinary scheduler
// queue but touch no packet, flow, or RNG state, so traces and dynamics
// are byte-identical to an unobserved run (pinned by the golden-trace
// perturbation test). The pulse rearms only while other events are
// pending: a sequential simulation is closed, so an otherwise-empty
// queue means the run is over, and a pulse that rearmed anyway would
// keep a run-to-empty loop alive forever.
func (h *Heartbeat) Attach(sched *sim.Scheduler, every time.Duration) {
	if h == nil {
		return
	}
	if every <= 0 {
		every = DefaultPulse
	}
	var tm *sim.Timer
	tm = sim.NewTimer(sched, func() {
		h.Beat()
		if _, ok := sched.NextAt(); ok {
			tm.ResetAfter(every)
		}
	})
	tm.ResetAfter(every)
}

// Beat notes progress (always forwarding the event total to the
// watchdog) and emits a record when the wall-clock interval elapsed.
// Call it from the goroutine driving the schedulers.
func (h *Heartbeat) Beat() {
	if h == nil {
		return
	}
	now := h.cfg.now()
	if !h.started {
		h.started = true
		h.start, h.last = now, now
	}
	var total uint64
	for _, s := range h.scheds {
		total += s.Processed()
	}
	if h.wd != nil {
		h.wd.Note(total)
	}
	if now.Sub(h.last) < h.cfg.Interval {
		return
	}
	h.emit(now, total, false)
}

// Final emits one closing record regardless of cadence — call it after
// the run loop returns so short runs still produce a summary line.
func (h *Heartbeat) Final() {
	if h == nil {
		return
	}
	now := h.cfg.now()
	if !h.started {
		h.started = true
		h.start, h.last = now, now
	}
	var total uint64
	for _, s := range h.scheds {
		total += s.Processed()
	}
	h.emit(now, total, true)
}

func (h *Heartbeat) emit(now time.Time, total uint64, final bool) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// The run's sim time is the slowest scheduler's clock (they agree at
	// barriers; mid-window the minimum is the safe claim).
	var simNow sim.Time
	for i, s := range h.scheds {
		if n := s.Now(); i == 0 || n < simNow {
			simNow = n
		}
	}

	dt := now.Sub(h.last).Seconds()
	if final || dt <= 0 {
		// Rates on a final or same-instant beat fall back to whole-run
		// averages to avoid division blowups.
		dt = now.Sub(h.start).Seconds()
		h.lastEvents = 0
		for i := range h.lastShard {
			h.lastShard[i] = 0
		}
	}

	b := Beat{
		WallSeconds: now.Sub(h.start).Seconds(),
		SimSeconds:  time.Duration(simNow).Seconds(),
		Events:      total,
		HeapMB:      float64(mem.HeapAlloc) / (1 << 20),
		HeapDeltaMB: (float64(mem.HeapAlloc) - float64(h.lastHeap)) / (1 << 20),
		GCs:         mem.NumGC - h.lastGC,
		Final:       final,
	}
	if h.beats == 0 {
		b.HeapDeltaMB = 0
		b.GCs = 0
	}
	if dt > 0 {
		b.EventsPerSec = float64(total-h.lastEvents) / dt
		// Sim progress over the interval: approximate with total sim/wall
		// on the first (and final) beat, interval deltas after.
		b.SimPerWall = b.SimSeconds / now.Sub(h.start).Seconds()
	}
	if h.cfg.Horizon > 0 {
		b.Progress = float64(simNow) / float64(h.cfg.Horizon)
		if b.SimPerWall > 0 && simNow < h.cfg.Horizon {
			b.ETASeconds = time.Duration(h.cfg.Horizon-simNow).Seconds() / b.SimPerWall
		}
	}
	if len(h.scheds) > 1 {
		var maxDelta uint64
		deltas := make([]uint64, len(h.scheds))
		for i, s := range h.scheds {
			deltas[i] = s.Processed() - h.lastShard[i]
			if deltas[i] > maxDelta {
				maxDelta = deltas[i]
			}
		}
		b.ShardLag = make([]uint64, len(deltas))
		for i, d := range deltas {
			b.ShardLag[i] = maxDelta - d
		}
	}

	if h.cfg.Text != nil {
		line := fmt.Sprintf("%s: sim %.2fs", h.cfg.Label, b.SimSeconds)
		if h.cfg.Horizon > 0 {
			line += fmt.Sprintf("/%.2fs (%.0f%%)", time.Duration(h.cfg.Horizon).Seconds(), b.Progress*100)
		}
		line += fmt.Sprintf(" events %d (%.3gM/s) %.1f sim-s/wall-s heap %.1fMB",
			b.Events, b.EventsPerSec/1e6, b.SimPerWall, b.HeapMB)
		if b.ETASeconds > 0 {
			line += fmt.Sprintf(" eta %.1fs", b.ETASeconds)
		}
		if final {
			line += " (final)"
		}
		fmt.Fprintln(h.cfg.Text, line)
	}
	if h.cfg.JSONL != nil {
		if data, err := json.Marshal(b); err == nil {
			h.cfg.JSONL.Write(append(data, '\n'))
		}
	}

	// Refresh the watchdog-facing snapshot: we are on the sim goroutine,
	// the only place scheduler state may be read.
	h.snapMu.Lock()
	for i, s := range h.scheds {
		next, ok := s.NextAt()
		h.snap[i] = shardSnap{
			events: s.Processed(), pending: s.Len(),
			now: s.Now(), nextAt: next, hasNext: ok,
		}
	}
	h.snapWall = now
	h.snapMu.Unlock()

	h.beats++
	h.last = now
	h.lastEvents = total
	for i, s := range h.scheds {
		h.lastShard[i] = s.Processed()
	}
	h.lastHeap = mem.HeapAlloc
	h.lastGC = mem.NumGC
}

// WindowStart implements EngineObserver: on the parallel engine a
// heartbeat beats at every barrier window. The other hooks are no-ops.
func (h *Heartbeat) WindowStart(window int, start, end sim.Time) { h.Beat() }

// ShardWindow implements EngineObserver.
func (h *Heartbeat) ShardWindow(shard, window int, events uint64, outbox int, execute, wait time.Duration) {
}

// WindowEnd implements EngineObserver.
func (h *Heartbeat) WindowEnd(window int, end sim.Time, messages int, exchange time.Duration) {}

// Beats returns the number of emitted records.
func (h *Heartbeat) Beats() int {
	if h == nil {
		return 0
	}
	return h.beats
}

// WriteSnapshot renders the last emitted beat's per-scheduler state. It
// is safe to call from any goroutine (the watchdog's diagnostic path).
func (h *Heartbeat) WriteSnapshot(w io.Writer) {
	if h == nil {
		return
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	if h.snapWall.IsZero() {
		fmt.Fprintln(w, "heartbeat: no beat emitted yet")
		return
	}
	fmt.Fprintf(w, "heartbeat: last beat %s ago\n", time.Since(h.snapWall).Round(time.Millisecond))
	for i, s := range h.snap {
		next := "queue empty"
		if s.hasNext {
			next = fmt.Sprintf("next event at %v", s.nextAt)
		}
		fmt.Fprintf(w, "  shard %d: now %v, %d events executed, %d pending, %s\n",
			i, s.now, s.events, s.pending, next)
	}
}
