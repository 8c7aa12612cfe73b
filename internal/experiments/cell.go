package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/invariant"
	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/span"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// instruments is the optional per-cell instrumentation of one run: metrics
// series and manifests, the invariant oracle, and the causal tracer. Any
// field may be nil.
type instruments struct {
	metrics *MetricsOptions
	inv     *InvariantOptions
	trace   *TraceOptions
}

// cell is one simulation cell: its scheduler plus, attached to its network
// in this fixed order, the metrics registry and sampler, the invariant
// checker (mirrored into the registry), the span tracer, and its flight
// recorder (armed on the checker when TraceOptions.FlightRecorder is set). A piece is nil when its option is off and
// every method skips what is missing, so runners carry no enabled
// branches. The tracer joins the network's observers ahead of the checker,
// so a violation's flight dump already holds the triggering event.
type cell struct {
	instruments
	name  string
	sched *sim.Scheduler

	start time.Time
	reg   *metrics.Registry
	samp  *metrics.Sampler

	check *invariant.Checker

	spans  *span.Collector
	fr     *span.FlightRecorder
	flight bytes.Buffer

	tl *faults.Timeline
}

// open starts one cell's instrumentation on a built topology before the
// clock runs. It schedules the sampler's first tick at t=0, behind any
// flow start already scheduled for that instant.
func (in instruments) open(name string, sched *sim.Scheduler, net *netem.Network) *cell {
	c := &cell{instruments: in, name: name, sched: sched}
	if m := in.metrics; m != nil {
		m.init()
		c.start = time.Now()
		c.reg = metrics.New()
		c.samp = metrics.NewSampler(sched, m.Interval, m.SeriesCap)
		c.samp.Start(0)
	}
	if in.inv != nil {
		c.check = invariant.New(sched)
		c.check.AttachNetwork(net)
		c.check.SetMetrics(c.reg)
	}
	if t := in.trace; t != nil {
		c.spans = span.New(sched, t.Cap)
		c.spans.AttachNetwork(net)
		c.fr = span.NewFlightRecorder(c.spans, &c.flight)
		if t.FlightRecorder && c.check != nil {
			c.fr.ArmChecker(c.check)
		}
	}
	return c
}

// The metrics.Instrument* helpers skip a nil sampler and registry, so the
// sampling methods below are no-ops when metrics are off.

// links samples network links (typically the bottlenecks) into the
// metrics series.
func (c *cell) links(ls ...*netem.Link) {
	for _, l := range ls {
		metrics.InstrumentLink(c.samp, c.reg, l, metrics.LinkPrefix(l))
	}
}

// meter samples a receiver-side reordering meter into the metrics series.
func (c *cell) meter(m *stats.ReorderMeter) {
	metrics.InstrumentReorder(c.samp, c.reg, m, "reorder")
}

// measure samples measurement flows into the metrics series (sender gauges
// and arrival counters) and attaches them like attach.
func (c *cell) measure(fs ...*workload.Flow) {
	for _, f := range fs {
		metrics.InstrumentFlow(c.samp, c.reg, f.Flow, metrics.FlowPrefix(f.ID, f.Protocol))
		c.attach(f.Flow, f.Protocol)
	}
}

// attach registers one flow with the checker and the tracer. Call after
// the sender is attached (workload.NewFlow or Flow.Attach) and before the
// clock runs.
func (c *cell) attach(f *tcp.Flow, protocol string) {
	if c.check != nil {
		c.check.AttachFlow(f, protocol)
	}
	if c.spans != nil {
		c.spans.AttachFlow(f, protocol)
	}
}

// timeline counts the applied faults into the registry, lists them in the
// manifest, and records them as trace events. The scripted faults are
// expected, so they never trigger a flight dump (DumpOnFault stays off).
func (c *cell) timeline(tl *faults.Timeline) {
	c.tl = tl
	tl.Instrument(c.reg)
	if c.fr != nil {
		c.fr.ArmTimeline(tl)
	}
}

// finish closes the cell in a fixed order once the clock has stopped: the
// checker's end-of-run rules (folded into the run summary), the trace
// export, and the metrics export, whose manifest m — labelled by the
// runner — lists the trace artifacts. Export failures are reported on
// stderr rather than aborting a simulation that already ran to completion.
func (c *cell) finish(m metrics.Manifest) {
	if c.check != nil {
		c.check.Finish()
		c.inv.record(CellViolations{
			Cell: c.name, Total: c.check.Total(), Violations: c.check.Violations(),
		})
	}
	if c.spans != nil {
		m.Artifacts = c.writeTrace()
	}
	if c.reg == nil {
		return
	}
	c.samp.Stop()
	m.Name = metrics.SanitizeName(c.name)
	m.WallSeconds = metrics.Wall(c.start)
	m.EventsProcessed = c.sched.Processed()
	m.FillRates()
	m.AddSnapshot(c.reg.Snapshot())
	if c.tl != nil {
		for _, ev := range c.tl.Applied() {
			m.Faults = append(m.Faults, ev.String())
		}
	}
	seriesFile := m.Name + ".series.tsv"
	m.AddSampler(c.samp, seriesFile)
	if err := writeArtifact(c.metrics.Dir, seriesFile, c.samp.WriteTSV); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: cell %s: %v\n", m.Name, err)
	}
	if err := m.WriteFile(filepath.Join(c.metrics.Dir, m.Name+".manifest.json")); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: cell %s: %v\n", m.Name, err)
	}

	agg := c.metrics.Aggregate()
	agg.Counter("cells_completed").Inc()
	agg.Counter("events_processed").Add(c.sched.Processed())
	var pts uint64
	for _, s := range c.samp.Series() {
		pts += uint64(s.Len())
	}
	agg.Counter("series_points").Add(pts)
}

// writeTrace exports the retained span events as a Perfetto trace and a
// span TSV, plus the flight dump when anything dumped, and returns the
// names of the files written.
func (c *cell) writeTrace() []string {
	type artifact struct {
		name  string
		write func(io.Writer) error
	}
	files := []artifact{
		{c.name + ".trace.json", c.spans.WriteChromeTrace},
		{c.name + ".spans.tsv", func(w io.Writer) error { return span.WriteTSV(w, c.spans.Events()) }},
	}
	if c.flight.Len() > 0 {
		files = append(files, artifact{c.name + ".flight.txt", func(w io.Writer) error {
			_, err := w.Write(c.flight.Bytes())
			return err
		}})
	}
	written := []string{}
	for _, f := range files {
		if err := writeArtifact(c.trace.Dir, f.name, f.write); err != nil {
			fmt.Fprintf(os.Stderr, "trace: cell %s: %v\n", c.name, err)
			continue
		}
		written = append(written, f.name)
	}
	return written
}

// writeArtifact creates dir/name (and dir) and fills it with write.
func writeArtifact(dir, name string, write func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
