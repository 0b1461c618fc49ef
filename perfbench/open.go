package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sagabench/internal/core"
	"sagabench/internal/durable"
)

// submitRec is the generator's record of one batch, in ns since the pass
// origin: when it was due, when Submit was called and when it returned.
type submitRec struct {
	due, start, end int64
	err             error
}

// drainTimeout bounds the wait for the last batches to become visible
// after the generator stops.
const drainTimeout = 60 * time.Second

// openPass offers n batches to a supervised durable pipeline at w.rate
// per second, timing each batch from its due time until a query can pin
// its epoch.
func openPass(w workload, st stream, n int, traced bool, seed int64, workDir string) (*pass, error) {
	dir, err := os.MkdirTemp(workDir, "wal-")
	if err != nil {
		return nil, fmt.Errorf("make WAL directory: %w", err)
	}
	defer os.RemoveAll(dir)

	origin := time.Now()
	pr := newProbe(origin, traced, true)
	cfg := supervisorConfig(w, filepath.Join(dir, "wal"))
	cfg.Pipeline.Faults = pr
	if traced {
		cfg.Pipeline.Durable.IO = pr
		cfg.Pipeline.Durable.Crash = pr.crash
		cfg.Pipeline.Compute.WorkerTiming = true
	}
	runtime.GC()
	t := time.Now()
	sup, err := core.NewSupervisor(cfg)
	if err != nil {
		return nil, fmt.Errorf("build supervisor: %w", err)
	}
	ps := &pass{setup: time.Since(t)}
	pr.attach(sup.Pipeline)

	rd := startReader(supervisorQueries(sup), seed)
	meter := startMeter()
	subs := make([]submitRec, 0, n)
	interval := time.Duration(float64(time.Second) / w.rate)
	first := time.Since(origin) + time.Millisecond
	for k := 0; k < n; k++ {
		due := first + time.Duration(k)*interval
		if wait := due - time.Since(origin); wait > 0 {
			time.Sleep(wait)
		}
		s := time.Since(origin)
		err := sup.Submit(st.batches[k])
		e := time.Since(origin)
		subs = append(subs, submitRec{due: int64(due), start: int64(s), end: int64(e), err: err})
		meter.sampleHeap()
	}
	accepted := 0
	for _, s := range subs {
		if s.err == nil {
			accepted++
		}
	}
	lastVisible, drained := waitVisible(sup, accepted)
	meter.sampleHeap()
	ps.res = meter.stop()
	ps.reader = rd.stop()
	if drained {
		pr.stamp(accepted-1, lastVisible)
	}
	ps.final, err = captureFinal(sup.AcquireQuery, nil, st)
	tClose := int64(time.Since(origin))
	if cerr := sup.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close supervisor: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rep := sup.Report()
	ps.final.engine = append([]float64(nil), sup.Pipeline().Values()...)

	events, counts, stamps := pr.snapshot()
	ol := openLoop(w.rate, subs, stamps)
	ps.open = &ol
	ps.failed = n - len(ol.visibleMS) + len(rep.Quarantined)
	ps.batches = len(ol.visibleMS)
	for k := 0; k < n; k++ {
		if subs[k].err == nil {
			ps.ops += len(st.batches[k].Adds) + len(st.batches[k].Dels)
		}
	}
	ps.visibleMS = ol.visibleMS
	ps.wall = ol.span
	if traced {
		if ps.trace, err = supervisedSpans(subs, events, counts, stamps, tClose); err != nil {
			return nil, err
		}
		if ps.trace.walBytes, err = walBytesPerBatch(workDir, st.batches[:n]); err != nil {
			return nil, err
		}
		ps.trace.ckptBytes = newestCheckpointBytes(filepath.Join(dir, "wal"))
	}
	return ps, nil
}

// supervisorConfig is the supervised, durable configuration of an
// open-loop workload: the WAL syncs every few records and checkpoints
// keep the durability layer's default cadence.
func supervisorConfig(w workload, walDir string) core.SupervisorConfig {
	pc := w.pipelineConfig()
	pc.Durable = &durable.Config{Dir: walDir, Fsync: durable.FsyncInterval}
	return core.SupervisorConfig{Pipeline: pc}
}

// waitVisible waits until the supervisor's pipeline has published want
// epochs, and returns the stamp of the last one.
func waitVisible(sup *core.Supervisor, want int) (time.Time, bool) {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		if int(sup.Pipeline().Epochs().LatestEpoch()) >= want {
			h, err := sup.AcquireQuery()
			if err != nil {
				return time.Time{}, false
			}
			wall := h.Snapshot().Wall
			h.Release()
			return wall, true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Time{}, false
}

// setupSupervised builds a supervisor over a fresh, empty WAL directory
// and closes it, timing only the build (open and recover included).
func setupSupervised(w workload, workDir string) (time.Duration, error) {
	dir, err := os.MkdirTemp(workDir, "setup-")
	if err != nil {
		return 0, fmt.Errorf("make WAL directory: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg := supervisorConfig(w, filepath.Join(dir, "wal"))
	runtime.GC()
	t := time.Now()
	sup, err := core.NewSupervisor(cfg)
	d := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("build supervisor: %w", err)
	}
	return d, sup.Close()
}

// walBytesPerBatch logs the batches into a scratch WAL through the
// durability layer's own Append and returns the mean record size it
// reports.
func walBytesPerBatch(workDir string, batches []core.MixedBatch) (float64, error) {
	dir, err := os.MkdirTemp(workDir, "walsize-")
	if err != nil {
		return 0, fmt.Errorf("make WAL directory: %w", err)
	}
	defer os.RemoveAll(dir)
	m, err := durable.Open(durable.Config{Dir: dir, Fsync: durable.FsyncNever, CheckpointEvery: -1}, nil)
	if err != nil {
		return 0, fmt.Errorf("open scratch WAL: %w", err)
	}
	if _, _, err := m.Recover(); err != nil {
		m.Abandon()
		return 0, fmt.Errorf("recover scratch WAL: %w", err)
	}
	total := 0
	for _, mb := range batches {
		if _, err := m.Append(mb.Adds, mb.Dels); err != nil {
			m.Abandon()
			return 0, fmt.Errorf("append to scratch WAL: %w", err)
		}
		b, _ := m.LastAppendStats()
		total += b
	}
	if err := m.Close(); err != nil {
		return 0, fmt.Errorf("close scratch WAL: %w", err)
	}
	return float64(total) / float64(len(batches)), nil
}

// newestCheckpointBytes is the size of the newest checkpoint file left in
// dir (the one Close wrote), or 0 when there is none. Checkpoint names
// carry their zero-padded sequence number, so the newest sorts last.
func newestCheckpointBytes(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(paths) == 0 {
		return 0
	}
	sort.Strings(paths)
	fi, err := os.Stat(paths[len(paths)-1])
	if err != nil {
		return 0
	}
	return fi.Size()
}
