package main

import (
	"fmt"
	"runtime"
	"time"

	"sagabench/internal/core"
)

// directBatch is the benchmark's record of one ProcessMixed call.
type directBatch struct {
	start, end int64 // ns since the pass origin
	lat        core.BatchLatency
}

// closedPass streams every batch through direct ProcessMixed calls, each
// issued as soon as the previous one returns.
func closedPass(w workload, st stream, traced bool, seed int64) (*pass, error) {
	origin := time.Now()
	pr := newProbe(origin, traced, false)
	cfg := w.pipelineConfig()
	if traced {
		cfg.Faults = pr
		cfg.Compute.WorkerTiming = true
	}
	runtime.GC()
	t := time.Now()
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("build pipeline: %w", err)
	}
	ps := &pass{setup: time.Since(t)}
	pr.attach(func() *core.Pipeline { return p })

	rd := startReader(pipelineQueries(p), seed)
	meter := startMeter()
	recs := make([]directBatch, 0, len(st.batches))
	t0 := time.Now()
	for _, mb := range st.batches {
		s := time.Since(origin)
		lat, err := p.ProcessMixed(mb)
		e := time.Since(origin)
		meter.sampleHeap()
		if err != nil {
			ps.failed++
			continue
		}
		ps.batches++
		ps.ops += len(mb.Adds) + len(mb.Dels)
		ps.visibleMS = append(ps.visibleMS, ms(e-s))
		recs = append(recs, directBatch{start: int64(s), end: int64(e), lat: lat})
	}
	ps.wall = time.Since(t0)
	ps.res = meter.stop()
	ps.reader = rd.stop()

	ps.final, err = captureFinal(p.AcquireQuery, p.Values(), st)
	if cerr := p.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close pipeline: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		events, counts, _ := pr.snapshot()
		if ps.trace, err = directSpans(recs, events, counts); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// setupDirect builds and closes a pipeline, timing only the build.
func setupDirect(w workload) (time.Duration, error) {
	runtime.GC()
	t := time.Now()
	p, err := core.NewPipeline(w.pipelineConfig())
	d := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("build pipeline: %w", err)
	}
	return d, p.Close()
}
