package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcppr/internal/workload"
)

// maxWorkers caps the parallelMap worker pool; 0 means "use GOMAXPROCS".
var maxWorkers atomic.Int64

// SetParallelism caps the number of concurrent experiment cells. n <= 0
// restores the default (one worker per available CPU). It exists for the
// CLI's -parallel flag: profiling runs want -parallel 1 for clean pprof
// attribution, and memory-tight machines want fewer concurrent cells.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int64(n))
}

// Parallelism reports the current worker cap: the value set by
// SetParallelism, or GOMAXPROCS when unset.
func Parallelism() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// progressFn, when non-nil, receives one line per parallelMap cell start
// and completion. Stored behind an atomic pointer: SetProgress is called
// once before the runs, but cells report from worker goroutines.
var progressFn atomic.Pointer[func(format string, args ...any)]

// SetProgress installs a per-cell progress sink (the CLI's -progress
// flag): every parallelMap cell logs a "start" and a "done" line through
// fn, which must be safe for concurrent use (wrap a shared writer in
// engineobs.NewSyncWriter). nil disables, the default — unset, the cell
// loop takes no clock readings at all.
func SetProgress(fn func(format string, args ...any)) {
	if fn == nil {
		progressFn.Store(nil)
		return
	}
	progressFn.Store(&fn)
}

// parallelMap runs fn(i) for i in [0, n) across a bounded worker pool and
// returns the results in index order. Every experiment cell builds its own
// scheduler and network, so cells are fully independent and embarrassingly
// parallel; only the enclosing figure's result assembly is sequential.
// Panics inside fn propagate to the caller (a misconfigured cell should
// fail the whole run, not vanish into a goroutine).
func parallelMap[T any](n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if p := progressFn.Load(); p != nil {
		inner := fn
		fn = func(i int) T {
			(*p)("cell %d/%d start", i+1, n)
			t0 := time.Now()
			out := inner(i)
			(*p)("cell %d/%d done in %.1fs", i+1, n, time.Since(t0).Seconds())
			return out
		}
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	out := make([]T, n)
	panics := make(chan any, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics <- r
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	close(panics)
	if r, ok := <-panics; ok {
		panic(r)
	}
	return out
}

// axis is one dimension of a matrix experiment: the configured names, in
// display order, and the lookup that resolves (and so validates) each.
type axis struct {
	names  []string
	lookup func(string) (any, error)
}

// catalogAxis adapts a typed catalog lookup to an axis.
func catalogAxis[T any](names []string, lookup func(string) (T, error)) axis {
	return axis{names, func(n string) (any, error) { return lookup(n) }}
}

// protocolAxis is the protocol dimension; matrix prefixes the
// unknown-protocol error.
func protocolAxis(matrix string, names []string) axis {
	return axis{names, func(n string) (any, error) {
		if !workload.Known(n) {
			return nil, fmt.Errorf("%s: unknown protocol %q", matrix, n)
		}
		return n, nil
	}}
}

// runMatrix is the one runner behind every matrix experiment. It resolves
// every name on every axis before the first cell runs, so a bad name fails
// fast, then runs the cross product through parallelMap, axis-major (the
// first axis varies slowest). run gets the cell's resolved coordinates, one
// per axis, and its 1-based index, from which the matrices derive per-cell
// random streams as sim.SplitSeed(seed, index).
func runMatrix[R any](axes []axis, run func(at []any, index int) R) ([]R, error) {
	cells := [][]any{nil}
	for _, a := range axes {
		vals := make([]any, len(a.names))
		for i, n := range a.names {
			v, err := a.lookup(n)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		next := make([][]any, 0, len(cells)*len(vals))
		for _, prefix := range cells {
			for _, v := range vals {
				next = append(next, append(prefix[:len(prefix):len(prefix)], v))
			}
		}
		cells = next
	}
	return parallelMap(len(cells), func(i int) R { return run(cells[i], i+1) }), nil
}
