package tcp

// SeqWindow maps sequence numbers to values for a sender's sliding window:
// entries cluster in a short range above the cumulative ACK point, are
// added at the tail as new data goes out, and leave mostly from the front
// as the ACK point advances. It stores them in a power-of-two ring indexed
// by seq - base, so lookup, insert and removal are O(1) and a cumulative
// ACK pops only the entries it covers instead of scanning the window.
//
// Any sequence may be put, including one below the current front (a
// retransmission re-inserted after the front moved past it) or far beyond
// the tail; the ring grows to cover the span from the lowest live entry
// to the highest sequence put since the window was last empty. Removing
// an entry above the front leaves a hole. Memory is proportional to that
// span, not to the number of live entries, so the type suits windows, not
// sparse maps.
//
// The zero value is an empty window ready to use.
type SeqWindow[T any] struct {
	slots []seqSlot[T] // ring; len is zero or a power of two
	head  int          // ring index of base
	base  int64        // sequence stored at slots[head]
	span  int          // slots covered: [base, base+span)
	n     int          // live entries
}

type seqSlot[T any] struct {
	v    T
	live bool
}

// Len returns the number of live entries.
func (w *SeqWindow[T]) Len() int { return w.n }

// slot returns the ring slot for seq, or nil when seq lies outside the
// covered span.
func (w *SeqWindow[T]) slot(seq int64) *seqSlot[T] {
	off := seq - w.base
	if off < 0 || off >= int64(w.span) {
		return nil
	}
	return &w.slots[(w.head+int(off))&(len(w.slots)-1)]
}

// Get returns the value stored for seq.
func (w *SeqWindow[T]) Get(seq int64) (v T, ok bool) {
	if sl := w.slot(seq); sl != nil && sl.live {
		return sl.v, true
	}
	return v, false
}

// Put stores v for seq, replacing any previous value.
func (w *SeqWindow[T]) Put(seq int64, v T) {
	switch {
	case w.n == 0:
		w.grow(1)
		w.base, w.span = seq, 1
	case seq < w.base:
		d := w.base - seq
		w.grow(int64(w.span) + d)
		w.head = (w.head - int(d)) & (len(w.slots) - 1)
		w.base = seq
		w.span += int(d)
	case seq >= w.base+int64(w.span):
		need := seq - w.base + 1
		w.grow(need)
		w.span = int(need)
	}
	sl := w.slot(seq)
	if !sl.live {
		sl.live = true
		w.n++
	}
	sl.v = v
}

// grow makes the ring hold at least need slots, re-laying the covered
// span from index zero when it has to reallocate.
func (w *SeqWindow[T]) grow(need int64) {
	if need <= int64(len(w.slots)) {
		return
	}
	// Start small: the short transfers of a churned workload never need
	// more than a few slots, and long flows double their way up once.
	size := max(len(w.slots), 4)
	for int64(size) < need {
		size <<= 1
	}
	slots := make([]seqSlot[T], size)
	for i := 0; i < w.span; i++ {
		slots[i] = w.slots[(w.head+i)&(len(w.slots)-1)]
	}
	w.slots, w.head = slots, 0
}

// Remove deletes seq's entry and returns its value. The front advances
// past any holes this exposes, so base is always a live sequence.
func (w *SeqWindow[T]) Remove(seq int64) (v T, ok bool) {
	sl := w.slot(seq)
	if sl == nil || !sl.live {
		return v, false
	}
	v = sl.v
	*sl = seqSlot[T]{}
	w.n--
	if w.n == 0 {
		w.span = 0
		return v, true
	}
	mask := len(w.slots) - 1
	for !w.slots[w.head].live {
		w.head = (w.head + 1) & mask
		w.base++
		w.span--
	}
	return v, true
}

// Front returns the lowest live sequence and its value.
func (w *SeqWindow[T]) Front() (seq int64, v T, ok bool) {
	if w.n == 0 {
		return 0, v, false
	}
	return w.base, w.slots[w.head].v, true
}

// PopFront removes and returns the lowest live entry.
func (w *SeqWindow[T]) PopFront() (seq int64, v T, ok bool) {
	if w.n == 0 {
		return 0, v, false
	}
	seq = w.base
	v, _ = w.Remove(seq)
	return seq, v, true
}

// Each calls fn for every live entry in ascending sequence order. fn must
// not modify the window.
func (w *SeqWindow[T]) Each(fn func(seq int64, v T)) {
	mask := len(w.slots) - 1
	for i := 0; i < w.span; i++ {
		if sl := &w.slots[(w.head+i)&mask]; sl.live {
			fn(w.base+int64(i), sl.v)
		}
	}
}
