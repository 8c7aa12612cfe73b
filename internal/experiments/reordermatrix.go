package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// ReorderMatrixConfig parameterizes the reordering survival matrix: every
// protocol runs a single long-lived flow over the default dumbbell while
// each canned reorder model (internal/netem's ReorderScenario catalog)
// scrambles the bottleneck's forward direction. Where the fault matrix
// breaks the network and the churn matrix breaks the endpoints, this one
// reproduces the paper's own adversary — *persistent* packet reordering —
// from three mechanistically different sources: bounded-displacement
// swaps, NIC interrupt-coalescing batch release, and multipath striping.
type ReorderMatrixConfig struct {
	// Protocols to compare; nil selects every registered variant.
	Protocols []string
	// Models names the reorder scenarios to run; nil selects the whole
	// catalog, including the in-order "none" baseline row.
	Models []string
	// Total is the simulated run length; zero selects 30s.
	Total time.Duration
	// Seed derives each cell's model RNG via sim.SplitSeed(Seed, cell),
	// so a cell's arrival permutation — and therefore its artifacts — is
	// a pure function of (Seed, cell). Zero selects 1.
	Seed int64
	// MeterCap is how many displacement-histogram buckets each cell
	// tracks exactly (larger displacements aggregate into an overflow
	// bucket); zero selects 16.
	MeterCap int
	// Metrics, Invariants, Trace behave as in FaultMatrixConfig. With
	// Metrics set, each cell additionally samples the reordering
	// trajectories (reorder.rate / reorder.kbound / reorder.footrule).
	Metrics    *MetricsOptions
	Invariants *InvariantOptions
	Trace      *TraceOptions
}

func (c *ReorderMatrixConfig) fill() {
	if c.Protocols == nil {
		c.Protocols = workload.AllProtocols()
	}
	if c.Models == nil {
		c.Models = netem.ReorderScenarioNames()
	}
	if c.Total == 0 {
		c.Total = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeterCap == 0 {
		c.MeterCap = 16
	}
}

// ReorderMatrixCell is one (reorder model, protocol) outcome: goodput and
// retransmissions on the protocol side, and the measured reordering
// process on the network side — late-arrival rate, displacement
// distribution, and the two almost-sorted measures (k-bound, footrule).
type ReorderMatrixCell struct {
	Model    string
	Protocol string
	// GoodputMbps is unique delivered payload over the whole run.
	GoodputMbps float64
	// RetxSegs counts retransmitted data segments — under pure
	// reordering every one of them is spurious, so this column is the
	// "wasted work" the paper's timer-based detection avoids.
	RetxSegs uint64
	// ReorderRate is the fraction of data arrivals that were late
	// (RFC 4737 reordered-packet ratio), as measured at the receiver.
	ReorderRate float64
	// Footrule is the normalized Spearman footrule: mean positions-late
	// per arrival across the stream.
	Footrule float64
	// KBound is the maximum observed displacement — the stream arrived
	// as a k-almost-sorted permutation with this k.
	KBound int64
	// LateArrivals is the absolute count of late data arrivals.
	LateArrivals uint64
	// Held / Released are the bottleneck's reorder-custody counters
	// (equal at quiescence; the invariant checker audits the ledger).
	Held     uint64
	Released uint64
	// Hist is the displacement distribution: Hist[d-1] arrivals were
	// exactly d positions late, up to the tracked cap; Overflow counts
	// the rest.
	Hist     []uint64
	Overflow uint64
}

// ReorderMatrixResult is the reorder matrix plus the config that ran it.
type ReorderMatrixResult struct {
	Cells  []ReorderMatrixCell
	Config ReorderMatrixConfig
}

// RunReorderMatrix runs every (model, protocol) cell and returns the
// matrix, model-major in the configured order.
func RunReorderMatrix(cfg ReorderMatrixConfig) (ReorderMatrixResult, error) {
	cfg.fill()
	cells, err := runMatrix([]axis{
		catalogAxis(cfg.Models, netem.ReorderScenarioByName),
		protocolAxis("reordermatrix", cfg.Protocols),
	}, func(at []any, index int) ReorderMatrixCell {
		return runReorderCell(at[0].(netem.ReorderScenario), at[1].(string), cfg, index)
	})
	return ReorderMatrixResult{Cells: cells, Config: cfg}, err
}

// runReorderCell runs one protocol's long-lived flow against one reorder
// model on the bottleneck's data direction.
func runReorderCell(sc netem.ReorderScenario, proto string, cfg ReorderMatrixConfig, cellIdx int) ReorderMatrixCell {
	c, db := instruments{cfg.Metrics, cfg.Invariants, cfg.Trace}.openDumbbell(
		fmt.Sprintf("reordermatrix_%s_%s", sc.Name, proto))
	f, meter := runReorderedFlow(c, db, sc, nil, proto, cfg.Seed, cellIdx, cfg.MeterCap, cfg.Total)
	c.finish(metrics.Manifest{Experiment: "reordermatrix", Topology: "dumbbell", Variant: sc.Name + "/" + proto,
		Seed: cfg.Seed, Params: map[string]float64{"meter_cap": float64(cfg.MeterCap)}, SimSeconds: cfg.Total.Seconds()})

	st := db.Bottleneck.Stats()
	return ReorderMatrixCell{
		Model:        sc.Name,
		Protocol:     proto,
		GoodputMbps:  stats.Mbps(stats.Throughput(f.UniqueBytes(), cfg.Total)),
		RetxSegs:     f.DataRetx(),
		ReorderRate:  meter.Rate(),
		Footrule:     meter.Footrule(),
		KBound:       meter.KBound(),
		LateArrivals: meter.Late(),
		Held:         st.ReorderHeld,
		Released:     st.ReorderReleased,
		Hist:         meter.Histogram(),
		Overflow:     meter.Overflow(),
	}
}

// runReorderedFlow runs one protocol's long-lived flow over the cell's
// dumbbell with the reorder model on the bottleneck's data direction and,
// when box is non-nil, that repair middlebox resequencing deliveries off
// the same link; the box is flushed at the horizon, as a teardown would,
// so its custody closes before the checker's end-of-run rules. The model
// draws from its own split seed stream sim.SplitSeed(seed, cellIdx), so
// adding or reordering cells never perturbs another cell's permutation.
// The returned meter measures what the receiver still sees: late
// arrivals (RFC 4737, retransmissions excluded) with meterCap exact
// displacement buckets.
func runReorderedFlow(c *cell, db *topo.Dumbbell, sc netem.ReorderScenario, box *netem.RepairBox,
	proto string, seed int64, cellIdx, meterCap int, total time.Duration) (*tcp.Flow, *stats.ReorderMeter) {
	if model := sc.New(sim.NewRand(sim.SplitSeed(seed, int64(cellIdx)))); model != nil {
		db.Bottleneck.SetReorderModel(model)
	}
	if box != nil {
		db.Bottleneck.SetRepair(box)
	}
	f := singleFlow(db)
	// The meter rides the receiver's data-arrival hook: Seq is the send
	// index (packets, ns-2 style).
	meter := stats.NewReorderMeter(meterCap)
	f.Hooks = tcp.FlowHooks{OnDataRecv: func(seg tcp.Seg, _ sim.Time) {
		if !seg.Retx {
			meter.Observe(seg.Seq)
		}
	}}.Chain(f.Hooks)
	c.meter(meter)
	c.measure(workload.NewFlow(f, proto, workload.PRParams{}, 0))
	c.sched.RunUntil(sim.Time(total))
	if box != nil {
		box.Flush()
	}
	return f, meter
}

// Table renders the reorder matrix in long format: one row per cell with
// goodput, spurious-retransmission load, and the reordering measures.
func (r ReorderMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: reordering survival matrix — single flow, 15 Mbps dumbbell, %v run, per-cell seeded models",
			r.Config.Total),
		Header: []string{"model", "protocol", "goodput (Mbps)", "retx segs",
			"reorder rate", "footrule", "k-bound", "late"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Model, c.Protocol, f2(c.GoodputMbps), fmt.Sprintf("%d", c.RetxSegs),
			f3(c.ReorderRate), f3(c.Footrule), fmt.Sprintf("%d", c.KBound),
			fmt.Sprintf("%d", c.LateArrivals))
	}
	return t
}

// DisplacementTable renders every cell's displacement distribution as
// one long table — the deterministic per-cell artifact the same-seed
// replay test compares byte for byte.
func (r ReorderMatrixResult) DisplacementTable() *Table {
	t := &Table{
		Title:  "Reordering displacement distribution (late arrivals by positions displaced)",
		Header: []string{"model", "protocol", "displacement", "count"},
	}
	for _, c := range r.Cells {
		for d, n := range c.Hist {
			if n == 0 {
				continue
			}
			t.AddRow(c.Model, c.Protocol, fmt.Sprintf("%d", d+1), fmt.Sprintf("%d", n))
		}
		if c.Overflow > 0 {
			t.AddRow(c.Model, c.Protocol, fmt.Sprintf(">%d", len(c.Hist)), fmt.Sprintf("%d", c.Overflow))
		}
	}
	return t
}
