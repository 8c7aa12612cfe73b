package experiments

import (
	"fmt"
	"strings"
	"sync"

	"tcppr/internal/invariant"
)

// InvariantOptions attaches the internal/invariant conformance oracle to
// every simulation cell of an experiment run. Each cell gets its own
// Checker (cells run on the parallel worker pool, but each cell's
// simulation is single-threaded); violations are folded into this shared,
// mutex-guarded summary as cells complete. A nil *InvariantOptions
// disables checking everywhere; the query methods are nil-safe.
type InvariantOptions struct {
	mu    sync.Mutex
	cells int
	total int
	fails []CellViolations
}

// CellViolations is the invariant outcome of one failing cell.
type CellViolations struct {
	// Cell names the simulation cell ("fig2_dumbbell_n8", ...).
	Cell string
	// Total counts every violation in the cell; Violations holds the
	// recorded ones (capped at invariant.DefaultMaxRecord).
	Total      int
	Violations []invariant.Violation
}

// Cells returns how many cells ran under these options.
func (o *InvariantOptions) Cells() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cells
}

// Total returns the violation count across all cells.
func (o *InvariantOptions) Total() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.total
}

// Failures returns the per-cell violation reports, in completion order.
func (o *InvariantOptions) Failures() []CellViolations {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]CellViolations(nil), o.fails...)
}

// Err returns nil when every cell was clean, otherwise an error naming the
// failing cells and their first violations.
func (o *InvariantOptions) Err() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.total == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "invariants: %d violation(s) in %d of %d cell(s)", o.total, len(o.fails), o.cells)
	for i, f := range o.fails {
		if i == 3 {
			sb.WriteString("; …")
			break
		}
		fmt.Fprintf(&sb, "; cell %s: %d violation(s)", f.Cell, f.Total)
		for j, v := range f.Violations {
			if j == 2 {
				sb.WriteString(" …")
				break
			}
			fmt.Fprintf(&sb, " [%s]", v)
		}
	}
	return fmt.Errorf("%s", sb.String())
}

// record folds one finished cell into the summary; cells complete on
// parallelMap workers, so the fold is the only cross-cell synchronization.
func (o *InvariantOptions) record(cv CellViolations) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cells++
	if cv.Total > 0 {
		o.total += cv.Total
		o.fails = append(o.fails, cv)
	}
}

// firstInv unpacks the optional variadic *InvariantOptions parameter the
// plain-Durations runners grew (variadic so existing callers stay valid).
func firstInv(inv []*InvariantOptions) *InvariantOptions {
	if len(inv) > 0 {
		return inv[0]
	}
	return nil
}
