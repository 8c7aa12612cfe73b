package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSuiteNamesCoverBaseline(t *testing.T) {
	suite := Suite()
	names := make(map[string]bool, len(suite))
	for _, bn := range suite {
		if bn.Name == "" || bn.F == nil {
			t.Fatalf("malformed suite entry %+v", bn)
		}
		if names[bn.Name] {
			t.Fatalf("duplicate suite entry %q", bn.Name)
		}
		names[bn.Name] = true
	}
	for _, base := range Baseline {
		if !names[base.Name] {
			t.Errorf("baseline %q has no suite entry", base.Name)
		}
	}
}

// TestSpanDetachedZeroAllocs is the tracing-overhead gate: with no
// collector attached, the span observer seam must leave the per-packet
// forwarding path at exactly 0 allocs/op.
func TestSpanDetachedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	r := testing.Benchmark(benchSpanDetached)
	if got := r.AllocsPerOp(); got != 0 {
		t.Fatalf("detached forwarding allocates %d allocs/op, want 0", got)
	}
}

// TestEngineObsDetachedZeroAllocs is the engine-telemetry counterpart of
// the span gate: a quiet heartbeat pulse (pooled timer, off-interval
// beats) must leave the per-packet forwarding path at exactly 0
// allocs/op, so attaching a watchdog or heartbeat never taxes the event
// hot path.
func TestEngineObsDetachedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	r := testing.Benchmark(benchEngineObsQuietHeartbeat)
	if got := r.AllocsPerOp(); got != 0 {
		t.Fatalf("forwarding under a quiet heartbeat allocates %d allocs/op, want 0", got)
	}
}

// TestSchedulerDeepZeroAllocs pins the event queue at 0 allocs/op at a
// realistic depth: heap growth and pooling must both be done by the time
// the steady state is measured.
func TestSchedulerDeepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	r := testing.Benchmark(benchSchedulerDeep)
	if got := r.AllocsPerOp(); got != 0 {
		t.Fatalf("deep-queue scheduling allocates %d allocs/op, want 0", got)
	}
}

// BenchmarkSchedulerDeep is the deep-queue scheduler entry, runnable on
// its own:
//
//	go test -run '^$' -bench SchedulerDeep ./internal/bench
func BenchmarkSchedulerDeep(b *testing.B) { benchSchedulerDeep(b) }

func TestRegressions(t *testing.T) {
	art := Artifact{
		Baseline: []Measurement{{Name: "x", AllocsPerOp: 10}},
		Results:  []Measurement{{Name: "x", AllocsPerOp: 7}},
	}
	if got := Regressions(art, 0.30); len(got) != 0 {
		t.Fatalf("7/10 allocs at 30%% threshold flagged: %v", got)
	}
	art.Results[0].AllocsPerOp = 8
	if got := Regressions(art, 0.30); len(got) != 1 {
		t.Fatalf("8/10 allocs at 30%% threshold not flagged: %v", got)
	}
	art.Results = nil
	if got := Regressions(art, 0.30); len(got) != 1 {
		t.Fatalf("missing result not flagged: %v", got)
	}
}

func TestRunMeasuresSimRate(t *testing.T) {
	m := Run(Bench{
		Name:       "trivial",
		SimSeconds: 1,
		F: func(b *testing.B) {
			x := 0
			for i := 0; i < b.N; i++ {
				x += i
			}
			_ = x
		},
	})
	if m.Name != "trivial" || m.NsPerOp <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	if m.SimSecondsPerWallSecond <= 0 {
		t.Fatalf("sim rate not computed: %+v", m)
	}
}

func TestArtifactWriteFile(t *testing.T) {
	art := Artifact{
		GoVersion: "go0.0",
		Results:   []Measurement{{Name: "x", NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3}},
		Baseline:  Baseline,
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(back.Results) != 1 || back.Results[0].Name != "x" {
		t.Fatalf("round trip lost results: %+v", back)
	}
	if len(back.Baseline) != len(Baseline) {
		t.Fatalf("round trip lost baseline: %+v", back)
	}
}
