package experiments

// TraceOptions attaches the internal/span causal tracer to every simulation
// cell of an experiment run. Each cell gets its own Collector (cells run on
// the parallel worker pool, but each cell's simulation is single-threaded);
// at cell completion the retained events are exported into Dir as a
// Perfetto-loadable Chrome trace (<cell>.trace.json) and a hop-level TSV
// (<cell>.spans.tsv). With FlightRecorder set, invariant violations, fault
// applications, and panics additionally dump the event tail plus the
// implicated packet's causal trail into <cell>.flight.txt. A nil
// *TraceOptions disables tracing everywhere.
type TraceOptions struct {
	// Dir receives the per-cell trace artifacts.
	Dir string
	// FlightRecorder arms the crash-dump recorder on each cell; dumps land
	// in <cell>.flight.txt (only written when something actually dumped).
	FlightRecorder bool
	// Cap bounds each cell's event ring; zero selects span.DefaultCap.
	Cap int
}
