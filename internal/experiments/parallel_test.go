package experiments

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"tcppr/internal/workload"
)

func TestParallelMapOrderAndCompleteness(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 200)
		out := parallelMap(n, func(i int) int { return i * i })
		if len(out) != n {
			return false
		}
		for i, v := range out {
			if v != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMapEmpty(t *testing.T) {
	if out := parallelMap(0, func(int) int { return 1 }); out != nil {
		t.Errorf("empty map returned %v", out)
	}
}

func TestParallelMapPanicsPropagate(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	parallelMap(8, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
}

// TestParallelResultsMatchSequential runs small configurations of the
// parallel figure and matrix runners once on a single worker and once at
// the default parallelism: every cell owns its scheduler and random
// streams, so the rendered tables must match byte for byte.
func TestParallelResultsMatchSequential(t *testing.T) {
	const total = 4 * time.Second
	short := Durations{Warm: 2 * time.Second, Measure: 2 * time.Second}
	protos := []string{workload.TCPPR, workload.NewReno}
	inv := func() *InvariantOptions { return &InvariantOptions{} }
	for _, tc := range []struct {
		name string
		run  func() ([]*Table, error)
	}{
		{"fig6", func() ([]*Table, error) {
			return RunFig6(Fig6Config{
				Protocols: []string{workload.TCPPR},
				Epsilons:  []float64{0, 500},
				Durations: Durations{Warm: 5 * time.Second, Measure: 5 * time.Second},
			}).Table(), nil
		}},
		{"faultmatrix", func() ([]*Table, error) {
			res, err := RunFaultMatrix(FaultMatrixConfig{Protocols: protos, Total: total,
				FaultAt: time.Second, Invariants: inv()})
			return []*Table{res.Table()}, err
		}},
		{"churnmatrix", func() ([]*Table, error) {
			res, err := RunChurnMatrix(ChurnMatrixConfig{Protocols: protos, Total: 2 * total,
				FaultAt: time.Second, Invariants: inv()})
			return []*Table{res.Table(), res.EventsTable()}, err
		}},
		{"reordermatrix", func() ([]*Table, error) {
			res, err := RunReorderMatrix(ReorderMatrixConfig{Protocols: protos, Total: total, Invariants: inv()})
			return []*Table{res.Table(), res.DisplacementTable()}, err
		}},
		{"repairmatrix", func() ([]*Table, error) {
			res, err := RunRepairMatrix(RepairMatrixConfig{Protocols: protos, Models: []string{"swap-high"},
				Total: total, Invariants: inv()})
			return []*Table{res.Table(), res.DetailTable()}, err
		}},
		{"robustness", func() ([]*Table, error) {
			return []*Table{RunRobustness(short, inv()).Table()}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(workers int) string {
				SetParallelism(workers)
				defer SetParallelism(0)
				tables, err := tc.run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				for _, tb := range tables {
					if err := tb.WriteCSV(&buf); err != nil {
						t.Fatal(err)
					}
				}
				return buf.String()
			}
			seq, par := render(1), render(0)
			if seq == "" {
				t.Fatal("empty tables")
			}
			if seq != par {
				t.Errorf("parallel tables differ from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq, par)
			}
		})
	}
}

func TestParallelMapConcurrentWithSetParallelism(t *testing.T) {
	// The CLI can flip -parallel between runs while tests already map in
	// the background; the cap is read per parallelMap call, so concurrent
	// writers must never race map workers. Run under -race this exercises
	// the atomic handoff.
	defer SetParallelism(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			SetParallelism(i % 5)
		}
	}()
	for j := 0; j < 20; j++ {
		out := parallelMap(32, func(i int) int { return i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
	}
	<-done
}

func TestInvariantOptionsConcurrentFold(t *testing.T) {
	// Cells fold their violation summaries into one shared InvariantOptions
	// from parallelMap workers; the fold must be race-free and lossless.
	opts := &InvariantOptions{}
	parallelMap(64, func(i int) struct{} {
		opts.record(CellViolations{Cell: "cell", Total: 1})
		return struct{}{}
	})
	if got := opts.Cells(); got != 64 {
		t.Fatalf("Cells() = %d, want 64", got)
	}
	if got := opts.Total(); got != 64 {
		t.Fatalf("Total() = %d, want 64", got)
	}
}
