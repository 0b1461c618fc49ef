package main

import (
	"fmt"
	"sort"
	"time"
)

// layer is one child span of a batch. A batch span is the benchmark's view
// of one batch (a ProcessMixed call, or due time to visibility); its
// children are cut at the boundaries the probe recorded, and core.other
// is whatever of the batch span no child covers.
type layer int

const (
	lGenLag layer = iota
	lSubmit
	lQueue
	lWALAppend
	lWALFsync
	lUpdate
	lView
	lCompute
	lPublish
	lOther
	nLayers
)

// batchSpan is one batch's span split into child self times (ns).
type batchSpan struct {
	total int64
	self  [nLayers]int64
	// skew is how far, in ns, the recorded boundaries are out of order:
	// children overlapping each other or leaving the batch span. It is 0
	// when the children tile the batch span exactly.
	skew int64
}

// passTrace is the per-layer record of one traced pass.
type passTrace struct {
	batches []batchSpan
	counts  []counters
	fsyncNS []int64
	// ckptNS is each periodic checkpoint, from the publish it follows to
	// its rename. It delays the batches queued behind it.
	ckptNS    []int64
	walBytes  float64
	ckptBytes int64
}

// finish fills core.other and the skew of a batch whose children are set.
func (b *batchSpan) finish() {
	var sum int64
	for l := layer(0); l < lOther; l++ {
		sum += b.self[l]
	}
	b.self[lOther] = b.total - sum
	if b.self[lOther] < 0 {
		b.skew += -b.self[lOther]
	}
}

// ordered adds to skew every step at which the boundary times go
// backwards.
func (b *batchSpan) ordered(times ...int64) {
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			b.skew += times[i-1] - times[i]
		}
	}
}

// directSpans splits the batches of a closed-loop pass. The benchmark timed
// each ProcessMixed call; the probe saw update, compute and publish
// begin; the pipeline reported the update and compute phase durations
// and the mirror refresh inside the update phase.
func directSpans(recs []directBatch, events []event, counts []counters) (*passTrace, error) {
	tr := &passTrace{counts: counts}
	if len(counts) != len(recs) {
		return nil, fmt.Errorf("trace: %d publishes for %d batches", len(counts), len(recs))
	}
	ev := 0
	for i, r := range recs {
		var at [mOther + 1]int64
		var seen [mOther + 1]bool
		for ; ev < len(events) && events[ev].t <= r.end; ev++ {
			if e := events[ev]; e.t >= r.start {
				at[e.m], seen[e.m] = e.t, true
			}
		}
		if !seen[mUpdate] || !seen[mCompute] || !seen[mPublish] {
			return nil, fmt.Errorf("trace: batch %d is missing a phase boundary", i)
		}
		view := int64(counts[i].view.Duration)
		u, c, p := at[mUpdate], at[mCompute], at[mPublish]
		b := batchSpan{total: r.end - r.start}
		b.self[lUpdate] = int64(r.lat.Update) - view
		b.self[lView] = view
		b.self[lCompute] = int64(r.lat.Compute)
		b.self[lPublish] = r.end - p
		b.ordered(r.start, u, u+int64(r.lat.Update), c, c+int64(r.lat.Compute), p, r.end)
		b.finish()
		tr.batches = append(tr.batches, b)
	}
	return tr, nil
}

// supervisedSpans splits the batches of an open-loop pass. Each batch
// runs from its due time to the stamp of its epoch; the generator saw
// Submit begin and return; the probe saw the WAL append begin and end
// (with any fsync or segment creation inside it) and update, compute and
// publish begin. Marks recorded after tClose belong to the shutdown.
func supervisedSpans(subs []submitRec, events []event, counts []counters, stamps map[int]int64, tClose int64) (*passTrace, error) {
	tr := &passTrace{counts: counts}
	var accepted []submitRec
	for _, s := range subs {
		if s.err == nil {
			accepted = append(accepted, s)
		}
	}
	// Cut the event log into one run of marks per batch, each starting at
	// the batch's WAL append, and the checkpoint runs that follow a
	// publish.
	type run struct {
		batch int
		marks []event
	}
	var batches, ckpts []run
	k := -1
	for _, e := range events {
		switch e.m {
		case mBeforeAppend:
			k++
			batches = append(batches, run{batch: k, marks: []event{e}})
		case mCkptWrite:
			ckpts = append(ckpts, run{batch: k, marks: []event{e}})
		case mCkptSync, mCkptRename, mAfterCkpt:
			if len(ckpts) > 0 {
				ckpts[len(ckpts)-1].marks = append(ckpts[len(ckpts)-1].marks, e)
			}
		default:
			if k >= 0 && k < len(batches) && e.t < tClose {
				batches[k].marks = append(batches[k].marks, e)
			}
		}
	}
	// Close writes a final checkpoint after the stream: not a batch's.
	if n := len(ckpts); n > 0 && ckpts[n-1].marks[0].t >= tClose {
		ckpts = ckpts[:n-1]
	}
	if len(batches) != len(accepted) || len(counts) != len(accepted) {
		return nil, fmt.Errorf("trace: %d WAL appends and %d publishes for %d batches",
			len(batches), len(counts), len(accepted))
	}
	for i, r := range batches {
		s := accepted[i]
		wall, ok := stamps[i]
		if !ok {
			return nil, fmt.Errorf("trace: batch %d never became visible", i)
		}
		var at [mOther + 1]int64
		var seen [mOther + 1]bool
		b := batchSpan{total: wall - s.due}
		b.self[lGenLag] = s.start - s.due
		enq := min(s.end, r.marks[0].t)
		b.self[lSubmit] = enq - s.start
		b.self[lQueue] = r.marks[0].t - enq
		for j, e := range r.marks {
			at[e.m], seen[e.m] = e.t, true
			if e.m >= mAfterAppend || j+1 == len(r.marks) {
				continue
			}
			d := r.marks[j+1].t - e.t
			if e.m == mWALFsync {
				b.self[lWALFsync] += d
				tr.fsyncNS = append(tr.fsyncNS, d)
			} else {
				b.self[lWALAppend] += d
			}
		}
		if !seen[mAfterAppend] || !seen[mUpdate] || !seen[mCompute] || !seen[mPublish] {
			return nil, fmt.Errorf("trace: batch %d is missing a boundary", i)
		}
		view := int64(counts[i].view.Duration)
		u, c, p := at[mUpdate], at[mCompute], at[mPublish]
		b.self[lUpdate] = c - u - view
		b.self[lView] = view
		b.self[lCompute] = p - c
		b.self[lPublish] = wall - p
		b.ordered(s.due, s.start, enq, r.marks[0].t, at[mAfterAppend], u, c, p, wall)
		b.ordered(0, b.self[lUpdate])
		b.finish()
		tr.batches = append(tr.batches, b)
	}
	for _, r := range ckpts {
		start, ok := stamps[r.batch]
		end := r.marks[len(r.marks)-1]
		if !ok || len(r.marks) != 4 || end.m != mAfterCkpt {
			return nil, fmt.Errorf("trace: incomplete checkpoint after batch %d", r.batch)
		}
		tr.ckptNS = append(tr.ckptNS, end.t-start)
	}
	return tr, nil
}

// openStats is the open-loop generator's account of one pass.
type openStats struct {
	offered, achieved float64 // batches per second
	lagMS             []float64
	visibleMS         []float64
	span              time.Duration
	// backlog is batches submitted but not yet visible, sampled at each
	// submission.
	backlog      []int
	overCapacity bool
}

// openLoop derives visibility latencies and the backlog from the
// generator's records and the epoch stamps.
func openLoop(rate float64, subs []submitRec, stamps map[int]int64) openStats {
	ol := openStats{offered: rate}
	var walls []int64
	k := 0
	for _, s := range subs {
		ol.lagMS = append(ol.lagMS, float64(s.start-s.due)/1e6)
		if s.err != nil {
			continue
		}
		w, ok := stamps[k]
		k++
		if !ok {
			continue
		}
		ol.visibleMS = append(ol.visibleMS, float64(w-s.due)/1e6)
		walls = append(walls, w)
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	visible := 0
	for i, s := range subs {
		for visible < len(walls) && walls[visible] <= s.start {
			visible++
		}
		ol.backlog = append(ol.backlog, i+1-visible)
	}
	if len(walls) > 0 && len(subs) > 0 {
		ol.span = time.Duration(walls[len(walls)-1] - subs[0].due)
		ol.achieved = float64(len(walls)) / ol.span.Seconds()
	}
	ol.overCapacity = backlogGrew(ol.backlog)
	return ol
}

// backlogGrowth is how many batches more the backlog must average over
// the last quarter of the stream than over the first before a pass is
// declared over capacity.
const backlogGrowth = 4

func backlogGrew(backlog []int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	return meanInt(backlog[len(backlog)-q:])-meanInt(backlog[:q]) >= backlogGrowth
}

func meanInt(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
