package main

import (
	"tcppr/internal/engineobs"
	"tcppr/internal/experiments"
	"tcppr/internal/tcp"
)

// layerMetrics gathers what a traced run measured.
type layerMetrics struct {
	events     uint64
	plain      passResult // the untraced pass the traced one is compared with
	tracedWall float64
	st         *layerStats
	cust       custody

	// armedWall is the invariant-armed reference pass, unarmedWall the
	// same work unchecked.
	armedWall, unarmedWall float64
	violations             int

	flowsStarted, transfers int

	psim                *engineobs.Summary
	shards              int
	crossShardBulkDelta float64

	cellWall []float64 // per-cell wall seconds of the sweep

	prUnique, prSent   int64
	unique, wire, retx int64
}

// addFlow folds one simulated flow's end state.
func (lm *layerMetrics) addFlow(f *tcp.Flow, pr bool) {
	uniqueSegs := f.UniqueBytes() / int64(f.PktSize)
	if pr {
		lm.prUnique += uniqueSegs
		lm.prSent += int64(f.DataSent())
	}
	lm.unique += f.UniqueBytes()
	lm.wire += int64(f.DataSent())*int64(f.PktSize) + int64(f.AcksSent())*int64(f.AckSize)
	lm.retx += int64(f.DataRetx())
}

// layerMetrics sets every per-layer metric.
func (r *runner) layerMetrics(lm *layerMetrics) {
	st := lm.st
	r.set("sim.events", float64(lm.events))
	r.set("sim.ns_per_event", lm.plain.wall*1e9/float64(lm.events))
	r.set("sim.queue_depth_mean", ratio(st.depthSum, st.depthSamples))
	r.set("sim.queue_depth_max", float64(st.depthMax))

	r.set("core.onack_calls", float64(st.prOnAckCalls))
	r.set("core.onack_self_ns", ratio(st.prOnAckSelfNs, st.prOnAckCalls))
	r.set("core.inflight_mean", ratio(st.prInflightSum, st.prOnAckCalls))
	r.set("core.retx_useful_frac", ratio(lm.prUnique, lm.prSent))

	r.set("tcp.rfc_onack_calls", float64(st.rfcOnAckCalls))
	r.set("tcp.rfc_onack_self_ns", ratio(st.rfcOnAckSelfNs, st.rfcOnAckCalls))
	r.set("tcp.transmit_ns", ratio(st.txNs, st.txCalls))
	r.set("tcp.retx", float64(lm.retx))
	r.set("tcp.goodput_frac", ratio(lm.unique, lm.wire))

	r.set("netem.pkts_sent", float64(st.pktsSent))
	r.set("netem.hops", float64(st.hops))
	r.set("netem.queue_wait_ms_mean", ratio(st.queueWait.Microseconds(), st.hops)/1e3)
	r.set("netem.drops", float64(st.drops))
	r.set("netem.reorder_held", float64(lm.cust.reorderHeld))
	r.set("netem.repair_held", float64(lm.cust.repairHeld))
	r.set("netem.repair_timed_out", float64(lm.cust.repairTimedOut))
	r.set("netem.repair_evicted", float64(lm.cust.repairEvicted))

	r.set("routing.route_calls", float64(st.routeCalls))
	r.set("routing.route_ns", ratio(st.routeNs, st.routeCalls))

	r.set("workload.flows_started", float64(lm.flowsStarted))
	r.set("workload.transfers", float64(lm.transfers))
	r.set("workload.transfer_frac", ratio(int64(lm.transfers), int64(lm.flowsStarted)))

	// The wall time the wrappers attribute to a layer is sender self time
	// plus Transmit (which includes the forward Route and the first hop);
	// on the psim engine also barrier wait and exchange. Reverse-path Route
	// calls are timed but not split from forward ones, so they count as
	// unattributed.
	var ps engineobs.Summary
	if lm.psim != nil {
		ps = *lm.psim
	}
	var exec, wait float64
	for _, s := range ps.PerShard {
		exec += s.ExecuteSeconds
		wait += s.WaitSeconds
	}
	shards := float64(max(lm.shards, 1))
	attributed := float64(st.prOnAckSelfNs+st.rfcOnAckSelfNs+st.txNs)/1e9 + wait + ps.ExchangeSeconds*shards
	r.set("psim.execute_s", exec)
	r.set("psim.wait_s", wait)
	r.set("psim.busy_frac", 0)
	if exec+wait > 0 {
		r.set("psim.busy_frac", exec/(exec+wait))
	}
	r.set("psim.windows", float64(ps.Windows))
	r.set("psim.exchange_s", ps.ExchangeSeconds)
	r.set("psim.messages", float64(ps.CrossShardMsgs))
	r.set("psim.events_imbalance", ps.EventsRatio)
	r.set("psim.window_ms_p50", ps.P50WindowSeconds*1e3)
	r.set("psim.window_ms_p99", ps.P99WindowSeconds*1e3)
	r.set("psim.cross_shard_bulk_delta", lm.crossShardBulkDelta)

	r.set("invariant.violations", float64(lm.violations))
	r.set("invariant.overhead_frac", lm.armedWall/lm.unarmedWall-1)

	var cellSum float64
	for _, c := range lm.cellWall {
		cellSum += c
	}
	r.set("experiments.cells", float64(len(lm.cellWall)))
	r.set("experiments.cell_ms_p50", percentile(lm.cellWall, 0.5)*1e3)
	r.set("experiments.cell_ms_p90", percentile(lm.cellWall, 0.9)*1e3)
	r.set("experiments.parallel_frac", cellSum/(lm.unarmedWall*float64(experiments.Parallelism())))

	rt := lm.plain.rt
	r.set("runtime.allocs_per_event", float64(rt.allocObjects)/float64(lm.events))
	r.set("runtime.gc_cycles", float64(rt.gcCycles))
	r.set("runtime.gc_cpu_frac", rt.gcCPU/rt.totalCPU)

	r.set("trace.overhead_frac", lm.tracedWall/lm.plain.wall-1)
	r.set("trace.unattributed_frac", 1-attributed/(lm.tracedWall*shards))
}
