// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package builds on: network links,
// TCP senders, and experiment harnesses all schedule callbacks on a shared
// Scheduler and read virtual time from it. Determinism is guaranteed by a
// single-threaded run loop and a strict (time, insertion-sequence) event
// ordering, so two runs with the same seeds produce identical traces.
//
// The engine is also the simulator's hottest allocation site: a long run
// schedules tens of millions of events, and a fresh Event per callback
// would make the garbage collector the bottleneck (the same observation
// that drove ns-2 to a tuned C++ event core). Fired and cancelled events
// therefore return to a per-scheduler free list and are reused; the public
// API hands out generation-checked Handle values instead of raw event
// pointers, so a stale reference to a recycled event can never cancel its
// new occupant. The AtFunc/AfterFunc variants additionally avoid the
// per-call closure by taking a long-lived callback plus an argument, which
// makes steady-state scheduling fully allocation-free.
//
// The pending-event queue is a typed 4-ary min-heap over *Event keyed on
// (time, insertion sequence). A long TCP-PR run keeps one loss timer per
// in-flight packet, so the queue routinely holds thousands of entries;
// the wider fan-out halves the tree height of a binary heap, and the
// inlined comparisons avoid container/heap's interface dispatch on every
// sift step. Keys are unique, so the pop order is exactly the (time,
// sequence) order whatever the heap's shape. Cancelled events stay in the
// heap and are discarded lazily when they reach the top.
package sim

import (
	"fmt"
	"os"
	"time"
)

// debugPoolEnv turns on pool-ownership checking for every new Scheduler
// when TCPPR_DEBUG_POOL is set in the environment; SetDebugPool overrides
// it per scheduler.
var debugPoolEnv = os.Getenv("TCPPR_DEBUG_POOL") != ""

// Time is a virtual timestamp measured from the start of the simulation.
// It reuses time.Duration so arithmetic with durations is natural and
// nanosecond-exact (no floating-point clock drift).
type Time = time.Duration

// Event is one pooled entry of the pending-event queue. Events are
// recycled after they fire or are discarded, so user code never holds an
// *Event directly — Scheduler.At and friends return a Handle instead.
type Event struct {
	at       Time
	seq      uint64
	gen      uint64
	fn       func()
	fnArg    func(any)
	arg      any
	canceled bool
	pooled   bool // on the free list (debug-mode double-release check)
	index    int  // position in the heap, -1 once popped
}

// Handle identifies one scheduled occurrence of an event. The zero Handle
// is valid and refers to nothing: Cancel and Pending on it report false.
// A Handle outliving its event is harmless — once the event has fired (or
// its cancelled slot has been recycled) the generation check makes every
// method a no-op, so callers may keep handles around without clearing
// them.
type Handle struct {
	e   *Event
	gen uint64
}

// live reports whether the handle still refers to the scheduled occurrence
// it was created for.
func (h Handle) live() bool { return h.e != nil && h.e.gen == h.gen }

// At returns the virtual time the event is scheduled to fire, or zero for
// a handle that no longer refers to a pending event.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.e.at
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired (or was already cancelled) is a no-op. It reports whether the
// event was still pending.
func (h Handle) Cancel() bool {
	if !h.live() || h.e.canceled || h.e.index == -1 {
		return false
	}
	h.e.canceled = true
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	return h.live() && !h.e.canceled && h.e.index != -1
}

// Scheduler owns the virtual clock and the pending-event queue.
// The zero value is not usable; create one with NewScheduler.
type Scheduler struct {
	now       Time
	seq       uint64
	events    eventHeap
	free      []*Event
	processed uint64
	debugPool bool
}

// NewScheduler returns a Scheduler with the clock at zero and no pending
// events.
func NewScheduler() *Scheduler {
	return &Scheduler{events: make(eventHeap, 0, 1024), debugPool: debugPoolEnv}
}

// SetDebugPool enables (or disables) pool-ownership checking: releasing an
// event that is already on the free list panics instead of silently
// corrupting the pool. The check is a single branch on the release path, so
// leaving it on costs essentially nothing; it defaults to the value of the
// TCPPR_DEBUG_POOL environment variable.
func (s *Scheduler) SetDebugPool(on bool) { s.debugPool = on }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (non-cancelled) events. Cancelled
// events still in the heap are not counted.
func (s *Scheduler) Len() int {
	n := 0
	for _, e := range s.events {
		if !e.canceled {
			n++
		}
	}
	return n
}

// Processed returns the number of events executed so far. It is useful for
// run-length accounting in benchmarks and runaway-simulation guards.
func (s *Scheduler) Processed() uint64 { return s.processed }

// FreeListLen returns the current size of the event free list (recycled
// events awaiting reuse). It exists for pool tests and capacity planning.
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// NextAt reports the timestamp of the next pending event and whether one
// exists. It exists for diagnostics — a stall watchdog distinguishing "the
// queue drained" from "a shard is stuck waiting at a barrier" — and, like
// every Scheduler method, may only be called from the goroutine running
// the scheduler.
func (s *Scheduler) NextAt() (Time, bool) {
	if e := s.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// schedule takes an event off the free list (or allocates one), fills it,
// and pushes it onto the heap. Bumping the generation at allocation time
// invalidates every handle to the event's previous occupancy.
func (s *Scheduler) schedule(t Time, fn func(), fnArg func(any), arg any) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.gen++
	e.pooled = false
	e.at = t
	e.seq = s.seq
	e.fn = fn
	e.fnArg = fnArg
	e.arg = arg
	e.canceled = false
	s.seq++
	s.events.push(e)
	return Handle{e: e, gen: e.gen}
}

// release returns a popped event to the free list, dropping callback and
// argument references so the pool does not pin dead objects.
func (s *Scheduler) release(e *Event) {
	if s.debugPool && e.pooled {
		panic(fmt.Sprintf("sim: double release of event (at=%v seq=%d gen=%d)", e.at, e.seq, e.gen))
	}
	e.pooled = true
	e.fn = nil
	e.fnArg = nil
	e.arg = nil
	s.free = append(s.free, e)
}

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it is always a logic error in a discrete-event model
// and silently reordering the past would destroy determinism.
func (s *Scheduler) At(t Time, fn func()) Handle {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtFunc schedules fn(arg) to run at virtual time t. Unlike At, which
// usually forces the caller to allocate a fresh closure per call, AtFunc
// takes a long-lived callback (typically created once per object) plus the
// state it needs, so hot paths — link delivery, per-segment loss timers —
// schedule without allocating. Passing a pointer as arg does not allocate;
// passing a non-pointer value boxes it.
func (s *Scheduler) AtFunc(t Time, fn func(any), arg any) Handle {
	return s.schedule(t, nil, fn, arg)
}

// AfterFunc schedules fn(arg) to run d after the current virtual time.
func (s *Scheduler) AfterFunc(d time.Duration, fn func(any), arg any) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtFunc(s.now+d, fn, arg)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (false means the
// queue is empty).
func (s *Scheduler) Step() bool {
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.canceled {
			s.release(e)
			continue
		}
		s.now = e.at
		s.processed++
		fn, fnArg, arg := e.fn, e.fnArg, e.arg
		// Recycle before running the callback: the event is logically
		// finished, and the callback's own scheduling can then reuse the
		// slot immediately — the common self-rearming pattern becomes a
		// single-event round trip.
		s.release(e)
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to exactly t. Events scheduled after t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	for {
		e := s.peek()
		if e == nil || e.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunUntilCond executes events until done() reports true, the clock would
// pass limit, or the queue empties — whichever comes first. done is
// evaluated after every event, so the clock stops at the exact event that
// satisfied it. It returns true iff done was satisfied. Tests that wait
// for a condition with an unknown completion time (a transfer finishing
// after a blackout, say) use this instead of guessing a RunUntil horizon;
// the limit bounds livelocks, e.g. a sender retransmitting forever without
// progressing.
func (s *Scheduler) RunUntilCond(limit Time, done func() bool) bool {
	if done() {
		return true
	}
	for {
		e := s.peek()
		if e == nil || e.at > limit {
			if s.now < limit {
				s.now = limit
			}
			return false
		}
		s.Step()
		if done() {
			return true
		}
	}
}

// peek returns the next non-cancelled event without executing it, lazily
// discarding cancelled entries from the top of the heap.
func (s *Scheduler) peek() *Event {
	for len(s.events) > 0 {
		if e := s.events[0]; e.canceled {
			s.events.pop()
			s.release(e)
			continue
		}
		return s.events[0]
	}
	return nil
}

// eventHeap is a 4-ary min-heap ordered by (time, insertion sequence).
// The sequence tiebreak makes same-timestamp execution order equal to
// scheduling order, which keeps simulations deterministic. Every entry's
// index field tracks its slot; pop sets it to -1, which is how a Handle
// tells a fired event from a pending one.
type eventHeap []*Event

// before reports whether e fires ahead of o.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push inserts e, sifting it up from the tail.
func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		parent := q[p]
		if !e.before(parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = e
	e.index = i
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	top.index = -1
	if n == 0 {
		return top
	}
	// Sift the former tail down from the root: at each level move the
	// earliest of up to four children up while it fires before last.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := q[c]
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q[j].before(best) {
				best, c = q[j], j
			}
		}
		if !best.before(last) {
			break
		}
		q[i] = best
		best.index = i
		i = c
	}
	q[i] = last
	last.index = i
	return top
}
