package main

import (
	"fmt"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

const (
	cityShards  = 2
	cityHorizon = 10 * time.Second
	// onOffFlowStride mirrors psim's per-source flow-ID stride so the
	// benchmark's own city assembly hands out the same flow IDs.
	onOffFlowStride = 1 << 21
)

// cityConfig is the city workload at a shard count. The seed is the only
// generated input; every stochastic stream of the city derives from it.
func cityConfig(seed int64, shards int, armed bool) psim.CityRun {
	return psim.CityRun{
		City:            topo.CityConfig{Districts: 8, HostsPerDistrict: 32},
		Shards:          shards,
		Seed:            sim.SplitSeed(seed, 200),
		Horizon:         cityHorizon,
		SourcesPerHost:  2,
		ArrivalWindow:   cityHorizon / 4,
		BulkPerPair:     1,
		BulkProtocol:    workload.TCPPR,
		CheckInvariants: armed,
	}
}

func cityDigest(res psim.CityResult) string {
	return hashString(fmt.Sprintf("flows=%d transfers=%d transfer_bytes=%d bulk_bytes=%d",
		res.Flows, res.Transfers, res.TransferBytes, res.BulkBytes))
}

// runCity builds and runs one city through psim.BuildCity.
func runCity(cfg psim.CityRun) (opResult, psim.CityResult) {
	eng, st := psim.BuildCity(cfg)
	eng.Run(sim.Time(cfg.Horizon))
	res := st.Finish(0)
	return opResult{digests: []string{cityDigest(res)}, violations: int(res.Violations)}, res
}

// tracedCity is the benchmark's own assembly of the psim city, built from
// the same public pieces psim.BuildCity uses and in the same order, so
// that every sender, Transmit and router of the backbone flows and every
// on/off router can be wrapped. Its digest must equal BuildCity's.
type tracedCity struct {
	eng     *psim.Engine
	sources []*workload.OnOffSource
	bulk    []*tcp.Flow
	stats   []*layerStats
}

func buildTracedCity(cfg psim.CityRun) *tracedCity {
	bp := topo.NewCity(cfg.City)
	part := topo.PartitionBlueprint(bp, cfg.Shards, cfg.Seed)
	eng := psim.NewEngine(bp, part, cfg.Seed)
	c := &tracedCity{eng: eng}
	for _, sh := range eng.Shards() {
		st := &layerStats{}
		c.stats = append(c.stats, st)
		sh.Net.SetObserver(netObserver{st})
	}

	d, h, s := cfg.City.Districts, cfg.City.HostsPerDistrict, cfg.SourcesPerHost
	n := d * h * s
	starts := workload.PoissonStarts(n, 0, float64(n)/cfg.ArrivalWindow.Seconds(),
		sim.NewRand(sim.SplitSeed(cfg.Seed, 0x90155)))
	gi := 0
	for di := 0; di < d; di++ {
		sh := eng.ShardOf(topo.CityRouter(di))
		st := c.stats[sh.Index]
		for hi := 0; hi < h; hi++ {
			next := (hi + 1) % h
			src := sh.Net.Node(topo.CityHost(di, hi))
			dst := sh.Net.Node(topo.CityHost(di, next))
			fwd := timedRouter{routing.Static{Path: accessPath(sh.Net, di, hi, next)}, st}
			rev := timedRouter{routing.Static{Path: accessPath(sh.Net, di, next, hi)}, st}
			for si := 0; si < s; si++ {
				rng := sim.NewRand(sim.SplitSeed(cfg.Seed, int64(gi)))
				o := workload.NewOnOffSource(sh.Net, (gi+1)*onOffFlowStride, src, dst, fwd, rev, cfg.OnOff, rng)
				o.Start(starts[gi])
				c.sources = append(c.sources, o)
				gi++
			}
		}
	}

	id := 1
	for di := 0; di < d; di++ {
		next := (di + 1) % d
		if d == 2 && di == 1 {
			next = 0
		}
		for b := 0; b < cfg.BulkPerPair; b++ {
			srcName, dstName := topo.CityHost(di, b%h), topo.CityHost(next, b%h)
			fwdR := eng.Route(id, srcName, topo.CityRouter(di), topo.CityRouter(next), dstName)
			revR := eng.Route(id, dstName, topo.CityRouter(next), topo.CityRouter(di), srcName)
			srcSh, srcNode := eng.Node(srcName)
			dstSh, dstNode := eng.Node(dstName)
			srcSt, dstSt := c.stats[srcSh.Index], c.stats[dstSh.Index]
			f := tcp.NewSplitFlow(srcSh.Net, dstSh.Net, id, srcNode, dstNode,
				timedRouter{fwdR, srcSt}, timedRouter{revR, dstSt})
			f.Attach(timedFactory(workload.Factory(cfg.BulkProtocol, workload.PRParams{}), srcSt))
			f.Start(sim.Time(time.Duration(id) * time.Millisecond / 4))
			c.bulk = append(c.bulk, f)
			id++
		}
	}
	return c
}

func accessPath(net *netem.Network, d, from, to int) []*netem.Link {
	return []*netem.Link{
		net.FindLink(topo.CityHost(d, from), topo.CityRouter(d)),
		net.FindLink(topo.CityRouter(d), topo.CityHost(d, to)),
	}
}

// result folds the assembly's handles exactly as psim.CityState.Finish does.
func (c *tracedCity) result() psim.CityResult {
	var res psim.CityResult
	for _, s := range c.sources {
		res.Transfers += s.Transfers
		res.TransferBytes += s.BytesDelivered
		res.Flows += s.FlowsStarted()
	}
	for _, f := range c.bulk {
		res.BulkBytes += f.UniqueBytes()
		res.Flows++
	}
	return res
}

// runCity2Shard is the only workload that crosses psim's barrier,
// exchange and cross-shard portals, and the one with the most flow set-up
// and teardown (about 9,000 short on/off transfers beside the TCP-PR
// backbone flows). routing.Epsilon, reorder models and repair boxes are
// idle.
func runCity2Shard(r *runner) {
	cfg := cityConfig(r.seed, cityShards, false)
	r.setupSamples(func() { psim.BuildCity(cfg) })
	op := func(cfg psim.CityRun) func() opResult {
		return func() opResult {
			o, _ := runCity(cfg)
			return o
		}
	}
	armed := op(cityConfig(r.seed, cityShards, true))
	if !r.trace {
		r.measure(cityHorizon.Seconds(), op(cfg), armed)
		return
	}

	lm := &layerMetrics{st: &layerStats{}, shards: cityShards}
	var plainRes psim.CityResult
	ref, plain := r.armedPasses(lm, armed, func() opResult {
		o, res := runCity(cfg)
		plainRes = res
		return o
	})
	lm.plain, lm.events = plain, plainRes.Events
	var c *tracedCity
	prof := engineobs.NewProfiler(cityShards)
	prof.SetMaxWindows(1 << 30)
	lm.tracedWall = r.pass("traced", func(id int) {
		c = buildTracedCity(cfg)
		c.eng.SetObserver(&engineTracer{next: prof, shards: c.eng.Shards(), stats: c.stats, sp: &r.spans, parent: id})
		c.eng.Run(sim.Time(cfg.Horizon))
		r.record("traced", opResult{digests: []string{cityDigest(c.result())}}, ref)
	}).wall
	// Report only: the same seed at one shard. A symmetric city should be
	// shard-invariant, so any difference in backbone bytes is a defect.
	_, oneShard := runCity(cityConfig(r.seed, 1, false))
	lm.crossShardBulkDelta = float64(plainRes.BulkBytes-oneShard.BulkBytes) / float64(oneShard.BulkBytes)

	for i, sh := range c.eng.Shards() {
		lm.st.add(c.stats[i])
		lm.cust.addNetwork(sh.Net)
	}
	res := c.result()
	lm.flowsStarted, lm.transfers = res.Flows, res.Transfers
	for _, f := range c.bulk {
		lm.addFlow(f, true)
	}
	sum := prof.Summary(0)
	lm.psim = &sum
	r.layerMetrics(lm)
}
