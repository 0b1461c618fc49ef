package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/graph"
)

// This file threads the durability layer through the pipeline. The
// protocol per batch:
//
//	validate -> WAL append -> apply (panic-caught, retried) -> maybe checkpoint
//
// A batch failing validation is quarantined before it consumes a sequence
// number. A batch that appends but persistently fails to apply is
// tombstoned in the WAL, quarantined, and the in-memory state — possibly
// half-mutated by the failed apply — is rebuilt from checkpoint + WAL.
// Construction and rebuild share recoverDurable, so crash recovery is the
// ordinary startup path, not a special case.

// durState is the pipeline's durability attachment.
type durState struct {
	man       *durable.Manager
	meta      durable.PoisonMeta
	sinceCkpt int // applied batches since the last checkpoint

	// suspended: the WAL failed permanently under a "degrade" policy;
	// batches keep applying in memory, nothing more is logged.
	// ckptSuspended: checkpointing failed permanently; the WAL (if not
	// itself suspended) keeps the batches recoverable, just from an older
	// snapshot. Both are one-way — the degrade machinery never un-fails.
	suspended     bool
	ckptSuspended bool
}

// errFenced is returned by durable operations on a pipeline the
// supervisor has superseded: the rebuilt instance owns the WAL and
// checkpoint files now.
var errFenced = errors.New("core: pipeline fenced (superseded by a supervised rebuild)")

// initDurable opens the durability directory and recovers its contents.
func (p *Pipeline) initDurable(cfg durable.Config) error {
	man, err := durable.Open(cfg, p.rec)
	if err != nil {
		return err
	}
	threads := p.pcfg.Threads
	if threads <= 0 {
		threads = 1
	}
	p.dur = &durState{man: man, meta: durable.PoisonMeta{
		Directed: p.pcfg.Directed,
		Threads:  threads,
		DS:       p.pcfg.DataStructure,
		Alg:      p.pcfg.Algorithm,
		Model:    p.pcfg.Model,
		Source:   p.pcfg.Compute.Source,
	}}
	return p.recoverDurable()
}

// recoverDurable rebuilds the in-memory state from disk: fresh
// components, newest valid checkpoint, then WAL tail replay. A record
// that fails to replay (a poison batch logged before a crash) is
// tombstoned and quarantined, and the loop restarts — each pass
// permanently skips one record, so it terminates.
func (p *Pipeline) recoverDurable() error {
	for {
		cp, tail, err := p.dur.man.Recover()
		if err != nil {
			return err
		}
		if err := p.resetComponents(); err != nil {
			return err
		}
		if err := p.restoreCheckpoint(cp); err != nil {
			return err
		}
		replayedAll := true
		for _, r := range tail {
			if crash := p.dur.man.Config().Crash; crash != nil {
				crash(durable.CrashMidReplay)
			}
			mb := MixedBatch{Adds: r.Adds, Dels: r.Dels}
			if _, err := p.applyRetry(r.Seq, mb); err != nil {
				if qerr := p.quarantine(r.Seq, err, mb); qerr != nil {
					return qerr
				}
				replayedAll = false
				break
			}
		}
		if !replayedAll {
			continue
		}
		// Attribute recovery's ingestion to recovery, not to the next
		// batch's telemetry delta.
		if prof, ok := ds.ProfileOf(p.g); ok {
			p.lastProf = prof
		}
		return nil
	}
}

// resetComponents replaces the data structure and engine with fresh ones
// built from the original configuration.
func (p *Pipeline) resetComponents() error {
	g, engine, err := buildComponents(p.pcfg)
	if err != nil {
		return err
	}
	p.g, p.engine = g, engine
	p.lastProf = ds.UpdateProfile{}
	// The old view mirrors the discarded structure; a fresh one is unbuilt
	// and full-builds on the first post-recovery Refresh, which sees the
	// checkpoint-restored topology (restoreCheckpoint writes the structure
	// directly, bypassing apply and therefore the mirror).
	if err := p.initView(); err != nil {
		return err
	}
	if p.em != nil {
		// The double buffer was discarded with the old view; the spare the
		// manager tracked no longer exists, so stop gating on it. Snapshots
		// published before the reset stay pinned and intact — their arrays
		// belong to the GC now, not to any live double buffer.
		p.em.ForgetSpare()
	}
	return nil
}

// restoreCheckpoint rebuilds adjacency and engine state from a snapshot
// (nil = empty directory, nothing to restore).
func (p *Pipeline) restoreCheckpoint(cp *durable.Checkpoint) error {
	if cp == nil {
		return nil
	}
	if cp.Directed != p.pcfg.Directed {
		return fmt.Errorf("core: checkpoint directedness %v does not match pipeline config %v",
			cp.Directed, p.pcfg.Directed)
	}
	const chunk = 4096
	for lo := 0; lo < len(cp.Edges); lo += chunk {
		hi := lo + chunk
		if hi > len(cp.Edges) {
			hi = len(cp.Edges)
		}
		p.g.Update(graph.Batch(cp.Edges[lo:hi]))
	}
	// NumNodes is "1 + highest vertex ever ingested" and never shrinks,
	// but deletions can leave the highest vertex edgeless — absent from
	// the exported adjacency. Touch it with a self-loop insert+delete so
	// the recovered vertex count (which sizes every property array)
	// matches the checkpoint. Deletion matches on (src,dst), so the probe
	// edge cannot disturb real adjacency: if the vertex had edges we
	// would not be here.
	if cp.NumNodes > 0 && p.g.NumNodes() < cp.NumNodes {
		probe := graph.Batch{{Src: graph.NodeID(cp.NumNodes - 1), Dst: graph.NodeID(cp.NumNodes - 1)}}
		p.g.Update(probe)
		if d, ok := p.g.(ds.Deleter); ok {
			if err := d.Delete(probe); err != nil {
				return err
			}
		}
	}
	if p.g.NumNodes() != cp.NumNodes {
		return fmt.Errorf("core: restored %d vertices, checkpoint has %d", p.g.NumNodes(), cp.NumNodes)
	}
	if cp.Engine != nil {
		st, ok := p.engine.(compute.Stateful)
		if !ok {
			return fmt.Errorf("core: checkpoint carries engine state but %s/%s cannot restore it",
				p.engine.Name(), p.engine.Model())
		}
		st.RestoreState(*cp.Engine)
	}
	return nil
}

// processDurable is the durable batch path (see the file comment for the
// protocol). Poison batches are quarantined and return a nil error; a
// non-nil error is unrecoverable durability I/O.
func (p *Pipeline) processDurable(mb MixedBatch) (BatchLatency, error) {
	var lat BatchLatency
	if p.fenced.Load() {
		return lat, errFenced
	}
	man := p.dur.man
	// The durable path owns the batch trace so the WAL append and the
	// checkpoint land inside it; apply (via applyRetry) sees it in flight
	// and only contributes phase spans.
	if p.tr.Enabled() {
		p.bt = p.tr.StartBatch(p.batchIdx)
	}
	if err := durable.ValidateBatch(mb.Adds, mb.Dels, man.Config().MaxNodeID); err != nil {
		path, qerr := man.Quarantine(p.dur.meta, 0, err.Error(), mb.Adds, mb.Dels)
		if qerr != nil {
			p.abortTrace(qerr)
			return lat, qerr
		}
		p.poisoned = append(p.poisoned, path)
		p.dumpQuarantineTrace(path, 0, err)
		return lat, nil
	}
	// seq stays 0 in degraded-durability mode: the batch applies in
	// memory only and the quarantine/rebuild machinery (which needs a
	// logged record to tombstone) is off.
	var seq uint64
	if !p.dur.suspended {
		wsp := p.bt.Start("wal.append")
		s, err := man.Append(mb.Adds, mb.Dels)
		if err != nil {
			wsp.SetStr("error", err.Error())
			wsp.End()
			if derr := p.durableFault("wal-append", err); derr != nil {
				p.abortTrace(derr)
				return lat, derr
			}
			// Degrade policy absorbed the fault: apply unlogged.
		} else {
			seq = s
			if wsp.Ctx().Enabled() {
				bytes, fsync := man.LastAppendStats()
				wsp.SetInt("seq", int64(seq))
				wsp.SetInt("bytes", int64(bytes))
				if fsync > 0 {
					wsp.SetInt("fsync_ns", fsync.Nanoseconds())
				}
			}
			wsp.End()
		}
	}
	lat, err := p.applyRetry(seq, mb)
	if err != nil {
		if seq == 0 {
			// Degraded mode: nothing was logged, so there is no tombstone
			// to write and no durable state to rebuild the half-mutated
			// components from. The pipeline is done.
			p.health.To(Failed, fmt.Sprintf("apply failed with durability suspended: %v", err))
			p.abortTrace(err)
			return BatchLatency{}, err
		}
		if qerr := p.quarantine(seq, err, mb); qerr != nil {
			p.abortTrace(qerr)
			return BatchLatency{}, qerr
		}
		// The failed apply may have half-mutated the graph or the engine;
		// rebuild from disk (the tombstone keeps the poison batch out).
		if rerr := p.recoverDurable(); rerr != nil {
			return BatchLatency{}, rerr
		}
		return BatchLatency{}, nil
	}
	p.dur.sinceCkpt++
	if every := man.Config().CheckpointEvery; every > 0 && !p.dur.ckptSuspended && p.dur.sinceCkpt >= every {
		if err := p.writeDurableCheckpoint(); err != nil {
			if derr := p.checkpointFault(err); derr != nil {
				p.abortTrace(derr)
				return lat, derr
			}
			// Absorbed: this batch is already logged and applied; only
			// future checkpoints are off.
		}
	}
	if bt := p.bt; bt != nil {
		p.bt = nil
		bt.SetInt("wal_seq", int64(seq))
		bt.Finish()
	}
	return lat, nil
}

// durableFault routes a WAL failure (already classified and retried by
// internal/durable) through the degrade policy. It returns nil when the
// pipeline absorbed the fault and the caller should apply the batch in
// memory, or the error the caller must surface: ErrReadOnly when the
// policy refuses ingest from here on, the original error when the
// policy is fail.
func (p *Pipeline) durableFault(op string, err error) error {
	if errors.Is(err, errFenced) {
		// A fenced instance hitting its own fence is not a disk fault;
		// routing it through the policy would degrade the shared health
		// machine on behalf of an instance that no longer matters.
		return err
	}
	cause := fmt.Sprintf("%s: %v", op, err)
	switch p.pcfg.DegradePolicy.target() {
	case DegradedDurability:
		p.dur.suspended = true
		p.dur.ckptSuspended = true
		p.health.To(DegradedDurability, cause)
		return nil
	case ReadOnly:
		p.health.To(ReadOnly, cause)
		p.health.NoteRefused()
		return ErrReadOnly
	default:
		p.health.To(Failed, cause)
		return err
	}
}

// checkpointFault routes a checkpoint failure through the degrade
// policy. Unlike a WAL fault, the batch that triggered it is already
// logged and applied, so the absorbing policies return nil (batch
// succeeded) and only stop future checkpoints; the WAL keeps the state
// recoverable from the last good snapshot.
func (p *Pipeline) checkpointFault(err error) error {
	if errors.Is(err, errFenced) {
		return err
	}
	cause := fmt.Sprintf("checkpoint: %v", err)
	switch p.pcfg.DegradePolicy.target() {
	case DegradedDurability:
		p.dur.ckptSuspended = true
		p.health.To(DegradedDurability, cause)
		return nil
	case ReadOnly:
		p.dur.ckptSuspended = true
		p.health.To(ReadOnly, cause)
		return nil
	default:
		p.health.To(Failed, cause)
		return err
	}
}

// applyRetry applies one batch with panic capture and exponential-backoff
// retries. Batch application is idempotent at the structure level
// (inserts overwrite, deletes of missing edges no-op), so retrying over a
// half-applied attempt converges to the same state.
func (p *Pipeline) applyRetry(seq uint64, mb MixedBatch) (BatchLatency, error) {
	cfg := p.dur.man.Config()
	backoff := cfg.RetryBackoff
	var lat BatchLatency
	var err error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.rec.RecordRetry()
			time.Sleep(backoff)
			backoff *= 2
		}
		lat, err = p.applyCaught(seq, mb)
		if err == nil {
			return lat, nil
		}
	}
	return lat, fmt.Errorf("core: batch seq %d failed %d attempts: %w", seq, cfg.MaxRetries+1, err)
}

// applyCaught applies one batch, converting panics anywhere in the update
// or compute phase into errors. Simulated crashes are re-raised: a kill
// is not a poison batch.
func (p *Pipeline) applyCaught(seq uint64, mb MixedBatch) (lat BatchLatency, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := durable.AsCrash(r); ok {
				panic(c)
			}
			err = fmt.Errorf("core: apply panic: %v", r)
		}
	}()
	if probe := p.dur.man.Config().ApplyProbe; probe != nil {
		if perr := probe(seq, mb.Adds, mb.Dels); perr != nil {
			return lat, perr
		}
	}
	return p.apply(mb)
}

// quarantine tombstones seq in the WAL and writes the batch to a
// replayable .poison file, plus the flight-recorder trace beside it.
func (p *Pipeline) quarantine(seq uint64, cause error, mb MixedBatch) error {
	if p.fenced.Load() {
		return errFenced
	}
	if err := p.dur.man.AppendSkip(seq); err != nil {
		return err
	}
	path, err := p.dur.man.Quarantine(p.dur.meta, seq, cause.Error(), mb.Adds, mb.Dels)
	if err != nil {
		return err
	}
	p.poisoned = append(p.poisoned, path)
	p.dumpQuarantineTrace(path, seq, cause)
	return nil
}

// dumpQuarantineTrace seals the poisoned batch's trace with the failure
// cause and writes the whole flight-recorder ring — the batches leading
// up to the death, plus the dying batch itself — as Chrome trace-event
// JSON next to the poison file, so the forensic record travels with the
// reproducer. No-op when tracing is off; best-effort otherwise (the
// poison file is the primary artifact, a failed trace dump must not turn
// a handled poison batch into a pipeline error).
func (p *Pipeline) dumpQuarantineTrace(poisonPath string, seq uint64, cause error) {
	if !p.tr.Enabled() {
		return
	}
	if bt := p.bt; bt != nil {
		p.bt = nil
		if seq > 0 {
			bt.SetInt("wal_seq", int64(seq))
		}
		bt.SetStr("quarantined", cause.Error())
		bt.Finish()
	}
	tracePath := strings.TrimSuffix(poisonPath, ".poison") + ".trace.json"
	// saga:allow errcheck-durable -- best-effort forensic sidecar; see doc comment.
	_ = p.tr.DumpChromeFile(tracePath)
}

// writeDurableCheckpoint snapshots the current in-memory state at the
// last logged sequence number.
func (p *Pipeline) writeDurableCheckpoint() error {
	if p.fenced.Load() {
		return errFenced
	}
	sp := p.bt.Start("checkpoint")
	defer sp.End()
	threads := p.pcfg.Threads
	if threads <= 0 {
		threads = 1
	}
	cp := &durable.Checkpoint{
		Seq:      p.dur.man.LastSeq(),
		Directed: p.pcfg.Directed,
		NumNodes: p.g.NumNodes(),
		Edges:    ds.ExportEdgesParallel(p.g, threads),
	}
	if st, ok := p.engine.(compute.Stateful); ok {
		s := st.ExportState()
		cp.Engine = &s
	}
	if err := p.dur.man.WriteCheckpoint(cp); err != nil {
		return err
	}
	p.dur.sinceCkpt = 0
	return nil
}

// Close shuts the pipeline down: epoch publication stops (subsequent
// AcquireQuery calls fail; handles already pinned stay valid until
// released — their snapshots are immutable and outlive the pipeline),
// then the durability layer flushes: final checkpoint, then WAL close.
// A pipeline with neither has nothing to close.
func (p *Pipeline) Close() error {
	if p.em != nil {
		p.em.Close()
	}
	if p.dur == nil {
		return nil
	}
	if p.fenced.Load() {
		// A superseded instance must not flush through files the rebuilt
		// pipeline owns; the supervisor abandoned this one deliberately.
		return nil
	}
	var firstErr error
	if !p.dur.suspended && !p.dur.ckptSuspended {
		if err := p.writeDurableCheckpoint(); err != nil {
			firstErr = err
		}
	}
	if p.dur.suspended {
		// The WAL already failed permanently; a close-time fsync through
		// the same dead disk would only manufacture a second error.
		p.dur.man.Abandon()
	} else if err := p.dur.man.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// DurableSeq is the sequence number of the last durably logged batch (0
// without durability): a driver resuming a stream skips everything at or
// below it.
func (p *Pipeline) DurableSeq() uint64 {
	if p.dur == nil {
		return 0
	}
	return p.dur.man.LastSeq()
}

// PoisonFiles lists the quarantine files written by this pipeline
// instance, in order.
func (p *Pipeline) PoisonFiles() []string { return p.poisoned }

// Abandon drops the durability layer without flushing, as a kill would:
// no final checkpoint, no WAL fsync. The kill/recover harness uses it for
// file-handle hygiene on pipelines it crashes; production code wants
// Close.
func (p *Pipeline) Abandon() {
	if p.dur != nil {
		p.dur.man.Abandon()
	}
}
