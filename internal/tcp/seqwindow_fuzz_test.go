package tcp

import (
	"sort"
	"testing"
)

// FuzzSeqWindow interprets the fuzz input as an op program against a
// SeqWindow and cross-checks every observation against a map[int64]
// reference model. Sequences are origin + a with a in 0..127, and one op
// moves the origin forward, so programs produce holes, re-inserts below
// the current front (retransmissions after the front moved past them),
// spans wider than the initial ring, and windows that slide far from
// where they started.
//
// Ops are encoded two bytes at a time: opcode, argument a.
//
//	go test -run '^$' -fuzz FuzzSeqWindow -fuzztime 30s ./internal/tcp
func FuzzSeqWindow(f *testing.F) {
	f.Add([]byte{0, 3, 0, 4, 0, 5, 3, 0, 5, 0})                       // tail puts, pop-front
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 2, 1, 2, 3, 0, 0, 2})           // interior hole, re-put
	f.Add([]byte{0, 40, 0, 41, 3, 0, 0, 10, 4, 0, 1, 10})             // re-insert below the front
	f.Add([]byte{0, 0, 0, 127, 0, 64, 2, 0, 2, 127, 4, 0})            // growth past the initial ring
	f.Add([]byte{0, 5, 5, 100, 0, 5, 0, 120, 3, 0, 3, 0, 0, 1, 6, 0}) // slide the origin, drain, refill
	f.Fuzz(func(t *testing.T, program []byte) {
		var w SeqWindow[int]
		ref := make(map[int64]int)
		var origin int64
		val := 0

		refFront := func() (int64, bool) {
			first, ok := int64(0), false
			for seq := range ref {
				if !ok || seq < first {
					first, ok = seq, true
				}
			}
			return first, ok
		}

		for pc := 0; pc+1 < len(program); pc += 2 {
			seq := origin + int64(program[pc+1]%128)
			switch program[pc] % 7 {
			case 0: // Put
				val++
				w.Put(seq, val)
				ref[seq] = val
			case 1: // Get
				got, ok := w.Get(seq)
				want, wok := ref[seq]
				if ok != wok || got != want {
					t.Fatalf("Get(%d) = %d,%v, want %d,%v", seq, got, ok, want, wok)
				}
			case 2: // Remove
				got, ok := w.Remove(seq)
				want, wok := ref[seq]
				if ok != wok || got != want {
					t.Fatalf("Remove(%d) = %d,%v, want %d,%v", seq, got, ok, want, wok)
				}
				delete(ref, seq)
			case 3: // PopFront
				gotSeq, got, ok := w.PopFront()
				wantSeq, wok := refFront()
				if ok != wok || (ok && (gotSeq != wantSeq || got != ref[wantSeq])) {
					t.Fatalf("PopFront() = %d:%d,%v, want %d:%d,%v", gotSeq, got, ok, wantSeq, ref[wantSeq], wok)
				}
				delete(ref, wantSeq)
			case 4: // Front
				gotSeq, got, ok := w.Front()
				wantSeq, wok := refFront()
				if ok != wok || (ok && (gotSeq != wantSeq || got != ref[wantSeq])) {
					t.Fatalf("Front() = %d:%d,%v, want %d:%d,%v", gotSeq, got, ok, wantSeq, ref[wantSeq], wok)
				}
			case 5: // slide the origin forward
				origin += int64(program[pc+1])
			case 6: // Each visits every live entry in ascending order
				var seqs []int64
				w.Each(func(seq int64, v int) {
					if v != ref[seq] {
						t.Fatalf("Each visited %d:%d, want value %d", seq, v, ref[seq])
					}
					seqs = append(seqs, seq)
				})
				if len(seqs) != len(ref) || !sort.SliceIsSorted(seqs, func(i, j int) bool { return seqs[i] < seqs[j] }) {
					t.Fatalf("Each visited %v, want the %d live seqs ascending", seqs, len(ref))
				}
				for i := 1; i < len(seqs); i++ {
					if seqs[i] == seqs[i-1] {
						t.Fatalf("Each visited %d twice", seqs[i])
					}
				}
			}
			if w.Len() != len(ref) {
				t.Fatalf("Len() = %d, want %d", w.Len(), len(ref))
			}
		}
	})
}
