package sim

import (
	"testing"
	"time"
)

// FuzzEventQueue interprets the fuzz input as an op program against a
// Scheduler and checks it against a reference model that keeps every
// scheduled event in a slice and always fires the pending one with the
// least (time, sequence).
// Programs interleave At, AtFunc, Cancel, Step and RunUntil, and events
// may schedule a child when they fire, so the queue is exercised at
// depth, with cancelled entries buried anywhere in the heap. After every
// op the fired order, the clock, Len, NextAt and each handle's Pending
// must agree with the model.
//
// Ops are encoded two bytes at a time: opcode, argument a.
//
//	go test -run '^$' -fuzz FuzzEventQueue -fuzztime 30s ./internal/sim
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 3, 3, 0, 3, 0, 3, 0})             // same-time FIFO
	f.Add([]byte{0, 9, 1, 4, 0, 7, 2, 1, 4, 8, 3, 0})             // cancel, run until
	f.Add([]byte{1, 130, 1, 131, 0, 2, 3, 0, 3, 0, 3, 0, 4, 200}) // children scheduled on fire
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 2, 2, 2, 4, 3, 0, 4, 3, 3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		type entry struct {
			at       Time
			seq      uint64
			child    Time // delay of the child scheduled on fire; <0 for none
			canceled bool
			fired    bool
		}
		s := NewScheduler()
		var (
			model   []*entry
			handles []Handle
			fired   []int // ids in the order the scheduler ran them
			want    []int // ids in the order the model fires them
			now     Time
			nextSeq uint64
		)

		var add func(at, child Time)
		run := func(id int) {
			fired = append(fired, id)
			if d := model[id].child; d >= 0 {
				add(s.Now()+d, -1)
			}
		}
		fireFunc := func(arg any) { run(arg.(int)) }
		add = func(at, child Time) {
			id := len(model)
			model = append(model, &entry{at: at, seq: nextSeq, child: child})
			nextSeq++
			if id%2 == 0 {
				handles = append(handles, s.At(at, func() { run(id) }))
			} else {
				handles = append(handles, s.AtFunc(at, fireFunc, id))
			}
		}

		// modelNext returns the pending entry the scheduler must fire next.
		modelNext := func() int {
			best := -1
			for id, e := range model {
				if e.fired || e.canceled {
					continue
				}
				if best < 0 || e.at < model[best].at || (e.at == model[best].at && e.seq < model[best].seq) {
					best = id
				}
			}
			return best
		}
		// modelFire marks an entry fired. Its child, if any, is already in
		// the model: run added it when the scheduler fired the entry.
		modelFire := func(id int) {
			e := model[id]
			e.fired = true
			now = e.at
			want = append(want, id)
		}

		for pc := 0; pc+1 < len(program); pc += 2 {
			a := program[pc+1]
			d := Time(a%16) * time.Millisecond
			switch program[pc] % 5 {
			case 0: // At or AtFunc, no child
				add(now+d, -1)
			case 1: // event that schedules a child when it fires
				add(now+d, Time(a/16)*time.Millisecond)
			case 2: // Cancel
				if len(handles) == 0 {
					continue
				}
				id := int(a) % len(handles)
				e := model[id]
				wantOK := !e.fired && !e.canceled
				if got := handles[id].Cancel(); got != wantOK {
					t.Fatalf("Cancel(#%d) = %v, want %v", id, got, wantOK)
				}
				e.canceled = true
			case 3: // Step
				id := modelNext()
				if got := s.Step(); got != (id >= 0) {
					t.Fatalf("Step() = %v, want %v", got, id >= 0)
				}
				if id >= 0 {
					modelFire(id)
				}
			case 4: // RunUntil
				limit := now + Time(a)*time.Millisecond/4
				s.RunUntil(limit)
				for {
					id := modelNext()
					if id < 0 || model[id].at > limit {
						break
					}
					modelFire(id)
				}
				if now < limit {
					now = limit
				}
			}
			checkFired(t, s, fired, want, now)
			pending := 0
			for id, e := range model {
				p := !e.fired && !e.canceled
				if p {
					pending++
				}
				if got := handles[id].Pending(); got != p {
					t.Fatalf("Pending(#%d) = %v, want %v", id, got, p)
				}
			}
			if got := s.Len(); got != pending {
				t.Fatalf("Len() = %d, want %d", got, pending)
			}
			nextAt, ok := s.NextAt()
			if id := modelNext(); ok != (id >= 0) || (ok && nextAt != model[id].at) {
				t.Fatalf("NextAt() = %v,%v, want entry %d", nextAt, ok, id)
			}
		}

		s.Run()
		for id := modelNext(); id >= 0; id = modelNext() {
			modelFire(id)
		}
		checkFired(t, s, fired, want, now)
	})
}

// checkFired compares the scheduler's fired order and clock with the
// model's.
func checkFired(t *testing.T, s *Scheduler, fired, want []int, now Time) {
	t.Helper()
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if s.Now() != now {
		t.Fatalf("Now() = %v, want %v", s.Now(), now)
	}
}
