package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
)

// runner carries one run's settings, op tally, metrics and spans.
type runner struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	digests           []string // every op's digest, in op order
	spans             spans
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runner) set(name string, v float64) { r.metrics[name] = metric{Value: v} }

// opResult is what one run of a workload reports: a digest per op (the
// run itself, or each cell of the sweep), the invariant violations seen,
// and an error that fails all of its ops.
type opResult struct {
	digests    []string
	violations int
	err        error
}

// record counts res's ops. An op fails on an error, on invariant
// violations, or on a digest that differs from want[i] (when want is set).
func (r *runner) record(name string, res opResult, want []string) {
	for i, d := range res.digests {
		r.attempted++
		r.digests = append(r.digests, d)
		switch {
		case res.err != nil:
			r.failed++
			if i == 0 {
				r.problem("%s: %v", name, res.err)
			}
		case res.violations != 0:
			r.failed++
			if i == 0 {
				r.problem("%s: %d invariant violations", name, res.violations)
			}
		case want != nil && (i >= len(want) || d != want[i]):
			r.failed++
			w := "(none)"
			if i < len(want) {
				w = want[i]
			}
			r.problem("%s op %d: digest %s, want %s", name, i+1, d, w)
		}
	}
}

// recordReference counts the reference result every other run of the same
// seed is compared with. At the default seed its digests must equal the
// ones recorded in digests.json.
func (r *runner) recordReference(res opResult) {
	var want []string
	if r.seed == defaultSeed {
		want = recordedDigests(r.workload)
		if want == nil {
			want = []string{}
		}
	}
	r.record("reference", res, want)
}

// setupSamples times build repeatedly for about a second (15 to 200
// times), each from a collected heap, and reports the median as setup_s.
// Traced runs do not report it.
func (r *runner) setupSamples(build func()) {
	if r.trace {
		return
	}
	var t []float64
	for start := nanotime(); len(t) < 15 || (len(t) < 200 && seconds(nanotime()-start) < 1); {
		runtime.GC()
		t0 := nanotime()
		build()
		t = append(t, seconds(nanotime()-t0))
	}
	r.set("setup_s", median(t))
}

// measure repeats op while another run fits in the measuring time (at
// least once) and reports the median simulated seconds per wall second,
// the heap bytes allocated per simulated second and the peak resident set.
// Then it checks every run against the reference: an invariant-armed run
// of the same inputs made by reference, or, when reference is nil, the
// first run.
func (r *runner) measure(simSeconds float64, op, reference func() opResult) {
	var rates []float64
	var results []opResult
	before := readRuntime()
	start := nanotime()
	for last := 0.0; len(rates) == 0 || seconds(nanotime()-start)+last <= r.seconds; {
		runtime.GC()
		t0 := nanotime()
		results = append(results, op())
		last = seconds(nanotime() - t0)
		rates = append(rates, simSeconds/last)
	}
	after := readRuntime()
	r.set("sim_rate", median(rates))
	r.set("alloc_mb_per_sim_s", float64(after.allocBytes-before.allocBytes)/1e6/(simSeconds*float64(len(rates))))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.problem("getrusage: %v", err)
	}
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports kilobytes

	ref, rest := results[0], results[1:]
	if reference != nil {
		ref, rest = reference(), results
	}
	r.recordReference(ref)
	for _, res := range rest {
		r.record("run", res, ref.digests)
	}
}

// passResult is the wall time and runtime counters of one traced-run pass.
type passResult struct {
	wall float64
	rt   runtimeDelta
}

// pass runs fn inside a span and measures it.
func (r *runner) pass(name string, fn func(span int)) passResult {
	runtime.GC()
	before := readRuntime()
	id := r.spans.begin(name, 0)
	fn(id)
	r.spans.end(id)
	sp := r.spans.list[id-1]
	return passResult{wall: seconds(sp.end - sp.start), rt: readRuntime().sub(before)}
}

// armedPasses starts a traced run: the invariant-armed reference and the
// same work unarmed, in the order armed, unarmed, unarmed, armed so that
// a steady drift of host speed cancels out of their ratio. It returns the
// reference digests, which every later pass must reproduce, and the
// second unarmed pass.
func (r *runner) armedPasses(lm *layerMetrics, armed, unarmed func() opResult) ([]string, passResult) {
	var ref opResult
	a1 := r.pass("armed", func(int) { ref = armed() })
	r.recordReference(ref)
	b1 := r.pass("unarmed", func(int) { r.record("unarmed", unarmed(), ref.digests) })
	b2 := r.pass("unarmed", func(int) { r.record("unarmed", unarmed(), ref.digests) })
	a2 := r.pass("armed", func(int) {
		res := armed()
		lm.violations += res.violations
		r.record("armed", res, ref.digests)
	})
	lm.violations += ref.violations
	lm.armedWall = (a1.wall + a2.wall) / 2
	lm.unarmedWall = (b1.wall + b2.wall) / 2
	return ref.digests, b2
}

// runtimeDelta is the change of runtime/metrics counters over a pass.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
