package main

import (
	"math"
	"time"

	"sagabench/internal/stats"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// totals sums what every pass of a run did.
type totals struct {
	ops      int
	batches  int
	failed   int
	wall     time.Duration
	cpu      time.Duration
	visible  []float64
	sessions []float64
	queries  int
	misses   int
}

func sum(passes []*pass) totals {
	var t totals
	for _, p := range passes {
		t.ops += p.ops
		t.batches += p.batches
		t.failed += p.failed
		t.wall += p.wall
		t.cpu += p.res.cpu
		t.visible = append(t.visible, p.visibleMS...)
		t.sessions = append(t.sessions, p.reader.sessionUS...)
		t.queries += p.reader.attempted
		t.misses += p.reader.misses
	}
	return t
}

// endToEnd is what a user of the pipeline sees, from untraced passes.
func endToEnd(passes []*pass, setups []time.Duration) map[string]metric {
	t := sum(passes)
	var setupS, peaks []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	for _, p := range passes {
		peaks = append(peaks, float64(p.res.peakLive)/1e6)
	}
	return map[string]metric{
		"setup_s":         {stats.Percentile(setupS, 50), "s"},
		"ingest_eps":      {stats.Ratio(float64(t.ops), t.wall.Seconds()), "1/s"},
		"visible_ms_p50":  {stats.Percentile(t.visible, 50), "ms"},
		"visible_ms_p95":  {stats.Percentile(t.visible, 95), "ms"},
		"query_us_p50":    {stats.Percentile(t.sessions, 50), "us"},
		"query_us_p95":    {stats.Percentile(t.sessions, 95), "us"},
		"cpu_us_per_edge": {stats.Ratio(us(t.cpu), float64(t.ops)), "us"},
		"peak_heap_mb":    {stats.Percentile(peaks, 50), "MB"},
	}
}

// perLayer is the traced passes' account of each layer. Counts named
// without a rate are per stream pass (averaged over the traced passes).
func perLayer(passes []*pass) map[string]metric {
	t := sum(passes)
	n := float64(len(passes))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Spans and their shares of the batch span.
	var self [nLayers][]float64
	var total, skew float64
	var layerSum [nLayers]float64
	var fsyncs, ckptMS, pinUS, stale []float64
	var walBytes, ckptBytes []float64
	var c struct {
		iters, traversed, trig, ingested, scans float64
		locks, promos, demos, fulls             float64
		dirty, straggler                        []float64
		batches                                 float64
		reclaimed, dropped                      float64
	}
	var mallocs, allocBytes, gcs, pause float64
	var pinsMax int64
	for _, p := range passes {
		tr := p.trace
		for _, b := range tr.batches {
			total += float64(b.total)
			skew = math.Max(skew, float64(b.skew))
			for l := layer(0); l < nLayers; l++ {
				self[l] = append(self[l], float64(b.self[l]))
				layerSum[l] += float64(b.self[l])
			}
		}
		for _, f := range tr.fsyncNS {
			fsyncs = append(fsyncs, float64(f)/1e3)
		}
		for _, ck := range tr.ckptNS {
			ckptMS = append(ckptMS, float64(ck)/1e6)
		}
		if tr.walBytes > 0 {
			walBytes = append(walBytes, tr.walBytes)
			ckptBytes = append(ckptBytes, float64(tr.ckptBytes))
		}
		for _, k := range tr.counts {
			c.batches++
			c.iters += float64(k.iterations)
			c.traversed += float64(k.edgesTraversed)
			c.trig += k.triggerFrac
			c.ingested += float64(k.edgesIngested)
			c.scans += float64(k.scanSteps)
			c.locks += float64(k.lockConflicts)
			c.promos += float64(k.promotions)
			c.demos += float64(k.demotions)
			if k.view.Nodes > 0 {
				c.dirty = append(c.dirty, k.view.DirtyFraction())
				if k.view.Full {
					c.fulls++
				}
			}
			if k.straggler > 0 {
				c.straggler = append(c.straggler, k.straggler)
			}
		}
		if last := len(tr.counts) - 1; last >= 0 {
			c.reclaimed += float64(tr.counts[last].epochReclaimed)
			c.dropped += float64(tr.counts[last].epochDropped)
		}
		pinUS = append(pinUS, p.reader.pinUS...)
		stale = append(stale, p.reader.staleness...)
		if p.reader.pinsMax > pinsMax {
			pinsMax = p.reader.pinsMax
		}
		mallocs += float64(p.res.mallocs)
		allocBytes += float64(p.res.allocBytes)
		gcs += float64(p.res.gcCycles)
		pause += ms(p.res.gcPause)
	}
	p50us := func(l layer) float64 { return stats.Percentile(self[l], 50) / 1e3 }
	share := func(l layer) float64 { return stats.Ratio(layerSum[l], total) }

	// Load generator and supervisor (open loop only; zero elsewhere).
	var lag, submitUS, queueMS []float64
	var offered, achieved, backlogEnd, overCap float64
	for _, p := range passes {
		if p.open == nil {
			achieved += stats.Ratio(float64(p.batches), p.wall.Seconds()) / n
			continue
		}
		lag = append(lag, p.open.lagMS...)
		offered = p.open.offered
		achieved += p.open.achieved / n
		backlogEnd = math.Max(backlogEnd, float64(p.open.backlog[len(p.open.backlog)-1]))
		if p.open.overCapacity {
			overCap = 1
		}
		for _, b := range p.trace.batches {
			submitUS = append(submitUS, float64(b.self[lSubmit])/1e3)
			queueMS = append(queueMS, float64(b.self[lQueue])/1e6)
		}
	}
	put("gen.lag_ms_p95", stats.Percentile(lag, 95), "ms")
	put("gen.offered_bps", offered, "1/s")
	put("gen.achieved_bps", achieved, "1/s")
	put("supervisor.submit_block_us_p95", stats.Percentile(submitUS, 95), "us")
	put("supervisor.queue_wait_ms_p50", stats.Percentile(queueMS, 50), "ms")
	put("supervisor.queue_wait_ms_p95", stats.Percentile(queueMS, 95), "ms")
	put("supervisor.backlog_end", backlogEnd, "count")
	put("supervisor.over_capacity", overCap, "bool")

	// Durability.
	var walAppend []float64
	for _, v := range self[lWALAppend] {
		if v > 0 {
			walAppend = append(walAppend, v/1e3)
		}
	}
	put("wal.append_us_p50", stats.Percentile(walAppend, 50), "us")
	put("wal.fsync_count", float64(len(fsyncs))/n, "count")
	put("wal.fsync_us_p50", stats.Percentile(fsyncs, 50), "us")
	put("wal.bytes_per_batch", stats.Summarize(walBytes).Mean, "B")
	put("checkpoint.count", float64(len(ckptMS))/n, "count")
	put("checkpoint.ms_p50", stats.Percentile(ckptMS, 50), "ms")
	put("checkpoint.bytes", stats.Summarize(ckptBytes).Mean, "B")

	// Update, view, compute, publish, glue.
	put("ds.update_us_p50", p50us(lUpdate), "us")
	put("ds.update_share", share(lUpdate), "frac")
	put("ds.scan_steps_per_edge", stats.Ratio(c.scans, c.ingested), "count")
	put("ds.lock_conflicts", c.locks/n, "count")
	put("ds.tier_promotions", c.promos/n, "count")
	put("ds.tier_demotions", c.demos/n, "count")
	var viewUS []float64
	for _, v := range self[lView] {
		if v > 0 {
			viewUS = append(viewUS, v/1e3)
		}
	}
	put("view.refresh_us_p50", stats.Percentile(viewUS, 50), "us")
	put("view.share", share(lView), "frac")
	put("view.dirty_frac_mean", stats.Summarize(c.dirty).Mean, "frac")
	put("view.full_rebuilds", c.fulls/n, "count")
	put("compute.us_p50", p50us(lCompute), "us")
	put("compute.share", share(lCompute), "frac")
	put("compute.iterations_mean", stats.Ratio(c.iters, c.batches), "count")
	put("compute.edges_traversed_per_batch", stats.Ratio(c.traversed, c.batches), "count")
	put("compute.trigger_frac_mean", stats.Ratio(c.trig, c.batches), "frac")
	put("compute.straggler_p50", stats.Percentile(c.straggler, 50), "ratio")
	put("epoch.publish_us_p50", p50us(lPublish), "us")
	put("epoch.publish_share", share(lPublish), "frac")
	put("epoch.reclaimed", c.reclaimed/n, "count")
	put("epoch.dropped", c.dropped/n, "count")
	put("epoch.pins_max", float64(pinsMax), "count")
	put("core.other_us_p50", p50us(lOther), "us")
	put("core.other_share", share(lOther), "frac")
	put("layers.skew_us_max", skew/1e3, "us")

	// Queries.
	put("query.pin_us_p50", stats.Percentile(pinUS, 50), "us")
	put("query.staleness_batches_p95", stats.Percentile(stale, 95), "count")
	put("query.sessions", float64(len(t.sessions))/n, "count")

	// Go runtime.
	put("runtime.allocs_per_batch", stats.Ratio(mallocs, float64(t.batches)), "count")
	put("runtime.alloc_bytes_per_batch", stats.Ratio(allocBytes, float64(t.batches)), "B")
	put("runtime.gc_cycles", gcs/n, "count")
	put("runtime.gc_pause_ms", pause/n, "ms")

	// The traced run's own end-to-end figures, to set against an untraced
	// run's for the tracing overhead, and its failure share.
	put("trace.ingest_eps", stats.Ratio(float64(t.ops), t.wall.Seconds()), "1/s")
	put("trace.visible_ms_p50", stats.Percentile(t.visible, 50), "ms")
	put("failed_frac", stats.Ratio(float64(t.failed+t.misses), float64(t.batches+t.failed+t.queries)), "frac")
	return m
}
