package main

import (
	"sync"
	"time"

	"sagabench/internal/core"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/fault"
)

// mark names one boundary the pipeline crosses inside a batch. The
// probe sees these through the program's own fault-injection and crash
// hooks, which fire at the entry of each operation.
type mark uint8

const (
	mBeforeAppend mark = iota // durable.CrashBeforeAppend
	mWALCreate                // fault.OpWALCreate
	mWALAppend                // fault.OpWALAppend
	mWALFsync                 // fault.OpWALFsync
	mAfterAppend              // durable.CrashAfterAppend: record written and synced per policy
	mUpdate                   // fault.OpUpdate
	mCompute                  // fault.OpCompute
	mPublish                  // fault.OpPublish
	mCkptWrite                // fault.OpCkptWrite
	mCkptSync                 // fault.OpCkptSync
	mCkptRename               // fault.OpCkptRename
	mAfterCkpt                // durable.CrashAfterCheckpoint: renamed, WAL GC next
	mOther                    // any op this file does not know
)

var opMarks = map[fault.Op]mark{
	fault.OpWALCreate:  mWALCreate,
	fault.OpWALAppend:  mWALAppend,
	fault.OpWALFsync:   mWALFsync,
	fault.OpUpdate:     mUpdate,
	fault.OpCompute:    mCompute,
	fault.OpPublish:    mPublish,
	fault.OpCkptWrite:  mCkptWrite,
	fault.OpCkptSync:   mCkptSync,
	fault.OpCkptRename: mCkptRename,
}

// event is one boundary crossing, in nanoseconds since the probe's origin.
type event struct {
	m mark
	t int64
}

// counters are the work counts of one batch, read at its publish boundary
// on the goroutine that runs the batch (compute has returned, the next
// update has not begun).
type counters struct {
	iterations     int
	edgesTraversed uint64
	triggerFrac    float64
	straggler      float64
	edgesIngested  uint64
	scanSteps      uint64
	lockConflicts  uint64
	promotions     uint64
	demotions      uint64
	view           ds.RefreshStats
	epochReclaimed uint64
	epochDropped   uint64
}

// probe is a passive fault.Injector: it never injects anything, it only
// timestamps the boundaries the pipeline announces. Installed as
// PipelineConfig.Faults (and, on durable pipelines, as durable.Config.IO
// and Crash) it records when update, compute, publish, WAL and checkpoint
// operations begin.
//
// At each publish boundary it also reads, on the batch's own goroutine,
// the previous batch's snapshot stamp (walls) and this batch's counters:
// the hooks of a supervised pipeline fire on the supervisor's worker
// goroutine, so everything shared with the benchmark's goroutines goes
// through mu.
type probe struct {
	origin time.Time
	// traced records every boundary and per-batch counters; untraced
	// probes only collect visibility stamps.
	traced bool
	// walls collects snapshot stamps (needed where the benchmark cannot
	// see a batch complete: the supervised path).
	walls bool
	pipe  func() *core.Pipeline

	mu       sync.Mutex
	events   []event
	counts   []counters
	stamps   map[int]int64 // batch index -> ns when its epoch became pinnable
	lastProf ds.UpdateProfile
}

func newProbe(origin time.Time, traced, walls bool) *probe {
	return &probe{origin: origin, traced: traced, walls: walls, stamps: map[int]int64{}}
}

// attach names the pipeline whose state publish boundaries read.
func (pr *probe) attach(pipe func() *core.Pipeline) { pr.pipe = pipe }

func (pr *probe) now() int64 { return int64(time.Since(pr.origin)) }

// Inject implements fault.Injector; it always lets the operation proceed.
func (pr *probe) Inject(op fault.Op) error {
	t := pr.now()
	m, ok := opMarks[op]
	if !ok {
		m = mOther
	}
	if m == mPublish {
		pr.onPublish(t)
		return nil
	}
	if pr.traced {
		pr.add(m, t)
	}
	return nil
}

// crash implements durable.CrashFunc without ever crashing.
func (pr *probe) crash(cp durable.CrashPoint) {
	if !pr.traced {
		return
	}
	t := pr.now()
	switch cp {
	case durable.CrashBeforeAppend:
		pr.add(mBeforeAppend, t)
	case durable.CrashAfterAppend:
		pr.add(mAfterAppend, t)
	case durable.CrashAfterCheckpoint:
		pr.add(mAfterCkpt, t)
	}
}

func (pr *probe) add(m mark, t int64) {
	pr.mu.Lock()
	pr.events = append(pr.events, event{m, t})
	pr.mu.Unlock()
}

// onPublish runs at the entry of a batch's publish phase. The snapshot
// still latest at that moment is the previous batch's; its Wall stamp
// is taken immediately before it was made pinnable.
func (pr *probe) onPublish(t int64) {
	p := pr.pipe()
	wallBatch, wall := -1, int64(0)
	if em := p.Epochs(); em != nil && pr.walls {
		if s := em.Pin(); s != nil {
			wallBatch, wall = s.Batch, int64(s.Wall.Sub(pr.origin))
			em.Release(s)
		}
	}
	var c counters
	if pr.traced {
		c = pr.count(p)
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if wallBatch >= 0 {
		pr.stamps[wallBatch] = wall
	}
	if pr.traced {
		pr.events = append(pr.events, event{mPublish, t})
		pr.counts = append(pr.counts, c)
	}
}

// count reads one batch's counters from the engine, the data structure,
// the compute view and the epoch manager.
func (pr *probe) count(p *core.Pipeline) counters {
	es := p.Engine().Stats()
	c := counters{
		iterations:     es.Iterations,
		edgesTraversed: es.EdgesTraversed,
		triggerFrac:    es.TriggerFraction(),
		straggler:      es.StragglerRatio(),
		view:           p.LastViewRefresh(),
	}
	if prof, ok := ds.ProfileOf(p.Graph()); ok {
		d := prof.Delta(&pr.lastProf)
		pr.lastProf = prof
		c.edgesIngested = d.EdgesIngested
		c.scanSteps = d.ScanSteps
		c.lockConflicts = d.LockConflicts
		c.promotions = d.TierPromotions
		c.demotions = d.TierDemotions
	}
	if em := p.Epochs(); em != nil {
		st := em.Stats()
		c.epochReclaimed, c.epochDropped = st.Reclaimed, st.Dropped
	}
	return c
}

// stamp records a visibility time the benchmark observed itself (the last
// batch of a supervised stream, which no later publish follows).
func (pr *probe) stamp(batch int, wall time.Time) {
	pr.mu.Lock()
	pr.stamps[batch] = int64(wall.Sub(pr.origin))
	pr.mu.Unlock()
}

// snapshot copies what the probe recorded. Call it only after the
// pipeline has stopped.
func (pr *probe) snapshot() ([]event, []counters, map[int]int64) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]event(nil), pr.events...), append([]counters(nil), pr.counts...), pr.stamps
}
