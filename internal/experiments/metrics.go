package experiments

import (
	"path/filepath"
	"sync"
	"time"

	"tcppr/internal/metrics"
)

// MetricsOptions enables the observability subsystem for an experiment
// run. When attached to a figure config, every simulation cell gets its
// own metrics.Registry and a virtual-clock Sampler over cwnd, queue
// depth, RTT estimates, and goodput; at cell completion a series dump
// (<cell>.series.tsv) and a manifest (<cell>.manifest.json) are written
// into Dir. A run-level aggregate registry (mutex-guarded — cells
// complete on the parallel worker pool) counts cells and total scheduler
// events across the whole figure.
type MetricsOptions struct {
	// Dir receives one series TSV plus one manifest JSON per cell.
	Dir string
	// Interval is the sampling cadence on the virtual clock; zero selects
	// metrics.DefaultInterval (100 ms).
	Interval time.Duration
	// SeriesCap bounds each ring-buffer series; zero selects
	// metrics.DefaultSeriesCap.
	SeriesCap int

	initOnce  sync.Once
	agg       *metrics.Registry
	wallStart time.Time
}

func (o *MetricsOptions) init() {
	o.initOnce.Do(func() {
		o.agg = metrics.NewShared()
		o.wallStart = time.Now()
	})
}

// Aggregate returns the run-level shared registry (cells_completed,
// events_processed, series_points counters).
func (o *MetricsOptions) Aggregate() *metrics.Registry {
	o.init()
	return o.agg
}

// WriteAggregate writes the run-level manifest (<experiment>_run.json)
// summarizing every cell completed so far under these options.
func (o *MetricsOptions) WriteAggregate(experiment string) error {
	o.init()
	m := &metrics.Manifest{
		Name:        metrics.SanitizeName(experiment) + "_run",
		Experiment:  experiment,
		WallSeconds: metrics.Wall(o.wallStart),
	}
	snap := o.agg.Snapshot()
	m.EventsProcessed = snap.Counters["events_processed"]
	m.FillRates()
	m.AddSnapshot(snap)
	return m.WriteFile(filepath.Join(o.Dir, m.Name+".json"))
}
