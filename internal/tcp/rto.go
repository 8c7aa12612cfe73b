package tcp

import (
	"time"

	"tcppr/internal/sim"
)

// RTO default bounds. MinRTO follows RFC 6298 §2.4 / RFC 2988 (the RTO
// "SHOULD" be at least one second); the paper leans on the same 1 s floor
// when emulating coarse timers in TCP-PR's extreme-loss mode.
const (
	DefaultMinRTO     = time.Second
	DefaultMaxRTO     = 64 * time.Second
	DefaultInitialRTO = 3 * time.Second
)

// RTOEstimator implements the RFC 6298 retransmission-timeout computation
// (Jacobson/Karels SRTT + RTTVAR with Karn's rule applied by the caller:
// never feed samples from retransmitted segments).
// The zero value is invalid; use NewRTOEstimator.
type RTOEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	hasRTT  bool
	backoff uint // consecutive timeouts, exponent for back-off
	minRTO  time.Duration
	maxRTO  time.Duration
	initial time.Duration
}

// NewRTOEstimator returns an estimator with the given bounds; zero values
// select the package defaults.
func NewRTOEstimator(minRTO, maxRTO, initial time.Duration) *RTOEstimator {
	if minRTO <= 0 {
		minRTO = DefaultMinRTO
	}
	if maxRTO <= 0 {
		maxRTO = DefaultMaxRTO
	}
	if initial <= 0 {
		initial = DefaultInitialRTO
	}
	return &RTOEstimator{minRTO: minRTO, maxRTO: maxRTO, initial: initial}
}

// OnSample feeds one round-trip-time measurement (RFC 6298 §2.2–2.3) and
// clears any timeout back-off.
func (e *RTOEstimator) OnSample(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if !e.hasRTT {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasRTT = true
	} else {
		// RTTVAR = 3/4 RTTVAR + 1/4 |SRTT-R'| ; SRTT = 7/8 SRTT + 1/8 R'.
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.backoff = 0
}

// RTO returns the current retransmission timeout, including exponential
// back-off from consecutive timeouts, clamped to [minRTO, maxRTO].
func (e *RTOEstimator) RTO() time.Duration {
	var base time.Duration
	if !e.hasRTT {
		base = e.initial
	} else {
		base = e.srtt + 4*e.rttvar
	}
	if base < e.minRTO {
		base = e.minRTO
	}
	for i := uint(0); i < e.backoff; i++ {
		base *= 2
		if base >= e.maxRTO {
			return e.maxRTO
		}
	}
	if base > e.maxRTO {
		base = e.maxRTO
	}
	return base
}

// Backoff doubles the timeout (RFC 6298 §5.5), up to the maximum.
func (e *RTOEstimator) Backoff() {
	if e.RTO() < e.maxRTO {
		e.backoff++
	}
}

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (e *RTOEstimator) SRTT() time.Duration { return e.srtt }

// Min returns the estimator's lower RTO bound (the RFC 6298 1 s floor by
// default). Conformance checkers use it to validate RTO() online.
func (e *RTOEstimator) Min() time.Duration { return e.minRTO }

// Max returns the estimator's upper RTO bound (64 s by default).
func (e *RTOEstimator) Max() time.Duration { return e.maxRTO }

// HasSample reports whether at least one RTT sample has been absorbed.
func (e *RTOEstimator) HasSample() bool { return e.hasRTT }

// SendTimes tracks per-sequence transmission times so senders can take RTT
// samples under Karn's rule. Records live in a SeqWindow, so the per-ACK
// Forget pops only the newly acknowledged records. The zero value is
// ready to use.
type SendTimes struct {
	w SeqWindow[sendRecord]
}

// sendRecord is one sequence's last transmission time and whether it was
// ever retransmitted.
type sendRecord struct {
	at   sim.Time
	retx bool
}

// Sent records that seq was (re)transmitted at now.
func (t *SendTimes) Sent(seq int64, now sim.Time, isRetx bool) {
	r, _ := t.w.Get(seq)
	r.at = now
	r.retx = r.retx || isRetx
	t.w.Put(seq, r)
}

// Sample returns the RTT for seq acknowledged at now. ok is false when the
// segment was retransmitted (Karn's rule) or unknown. The record is kept
// until Forget.
func (t *SendTimes) Sample(seq int64, now sim.Time) (rtt time.Duration, ok bool) {
	r, found := t.w.Get(seq)
	if !found || r.retx {
		return 0, false
	}
	return now - r.at, true
}

// SentAt returns the last transmission time for seq.
func (t *SendTimes) SentAt(seq int64) (sim.Time, bool) {
	r, ok := t.w.Get(seq)
	return r.at, ok
}

// WasRetx reports whether seq was ever retransmitted.
func (t *SendTimes) WasRetx(seq int64) bool {
	r, _ := t.w.Get(seq)
	return r.retx
}

// Forget drops every record below seq (they are cumulatively acked).
func (t *SendTimes) Forget(below int64) {
	for {
		seq, _, ok := t.w.Front()
		if !ok || seq >= below {
			return
		}
		t.w.PopFront()
	}
}
