// Package core is the SAGA-Bench platform: it wires a dynamic graph data
// structure and a compute engine into the streaming execution flow of the
// paper (Fig 1/Fig 2b) — for each incoming edge batch, run the update
// phase (ingest the batch) then the compute phase (run the algorithm on
// the freshly updated structure) — and measures the two latencies whose
// sum is the batch processing latency, the paper's performance metric
// (Equation 1).
//
// The package exposes two levels:
//
//   - Pipeline: the programmatic API a downstream application uses to
//     stream its own edges (see examples/).
//   - Runner: the measurement harness the characterization experiments
//     use — it generates a dataset, feeds all batches (optionally
//     repeated), and aggregates per-batch latencies into the paper's P1 /
//     P2 / P3 stages with 95% confidence intervals.
//
// saga:paniccapture — goroutines must capture panics so the poison-batch
// quarantine sees worker failures (enforced by sagavet; see
// internal/analysis).
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	"sagabench/internal/durable"
	"sagabench/internal/epoch"
	"sagabench/internal/fault"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
	"sagabench/internal/stats"
	"sagabench/internal/telemetry"
	"sagabench/internal/trace"
)

// Pipeline couples one data structure with one compute engine.
type Pipeline struct {
	g      ds.Graph
	engine compute.Engine
	rec    *telemetry.Recorder

	// view is the incrementally maintained flat CSR mirror, kept when
	// ComputeView or ServeQueries is on (nil otherwise, or when a
	// ComputeView-only structure exposes no Flattener). Served epochs are
	// published from it; compute traverses it only under ComputeView.
	// lastView is the refresh cost of the most recent batch.
	view     *ds.ComputeView
	lastView ds.RefreshStats

	// pcfg is retained so the durability layer can rebuild fresh
	// components during crash recovery and state rebuilds.
	pcfg PipelineConfig

	// dur is the durability state (nil when durability is disabled — the
	// hot path then never touches it).
	dur      *durState
	poisoned []string

	// health is the degradation state machine (nil only when no degrade
	// policy and no explicit Health were configured; every accessor is
	// nil-receiver safe, so the hot path never branches on it). fenced is
	// flipped by the supervisor when this instance is superseded by a
	// rebuild: a fenced pipeline refuses every durable file operation, so
	// a worker abandoned mid-stall cannot scribble WAL files the
	// replacement now owns.
	health *Health
	fenced atomic.Bool

	// tr is the batch tracer (nil = tracing off, zero cost); bt is the
	// in-flight batch's span tree. Whoever starts bt finishes it: apply
	// owns it on the direct path, processDurable on the durable path (so
	// WAL and checkpoint spans land inside the batch trace).
	tr *trace.Tracer
	bt *trace.Batch

	// em is the epoch-publication manager (nil when ServeQueries is off —
	// the batch loop then never touches it). epochBatch counts published
	// batches independently of the telemetry-gated batchIdx; lastEpoch
	// remembers the manager counters so record emits deltas.
	em         *epoch.Manager
	epochBatch int
	lastEpoch  epoch.Stats

	affected     []graph.NodeID
	affectedMark []uint8
	mixedScratch graph.Batch

	// Telemetry bookkeeping, touched only when rec != nil.
	batchIdx  int
	repeatTag int
	lastProf  ds.UpdateProfile
}

// PipelineConfig selects the pipeline's components.
type PipelineConfig struct {
	// DataStructure is a ds registry name (ds.Names() lists them): the
	// paper's "adjshared", "adjchunked", "stinger", "dah", or the
	// extensions "graphone" (log-structured) and "hybrid"
	// (degree-adaptive three-tier).
	DataStructure string
	// Algorithm is a compute algorithm name: "bfs", "cc", "mc", "pr",
	// "sssp", or "sswp".
	Algorithm string
	// Model is compute.FS or compute.INC.
	Model compute.Model
	// Directed declares the input stream's directedness.
	Directed bool
	// Threads is the worker count for both phases (0 = 1).
	Threads int
	// MaxNodesHint pre-sizes vertex-indexed state.
	MaxNodesHint int
	// Compute carries algorithm tuning (source vertex, tolerances).
	// Its Threads field is overridden by Threads above.
	Compute compute.Options
	// DS carries data-structure tuning (block size, chunk count, flush
	// threshold). Directed/Threads/MaxNodesHint above take precedence.
	DS ds.Config
	// ComputeView selects what the compute phase traverses: when true,
	// the flat CSR mirror of the data structure (rebuilt incrementally
	// after every update phase: only vertices the batch touched are
	// re-flattened), whose kernels then iterate contiguous arrays instead
	// of calling OutNeigh/InNeigh per vertex — the GraphTango split: a
	// dynamic structure for ingest, a flat one for analytics. When false,
	// compute runs over the structure's interface (the paper's Fig 6
	// path), whether or not a mirror is kept for ServeQueries. The
	// refresh cost is charged to the update phase (Equation 1 keeps both
	// sides honest). Structures without a Flattener fall back to the
	// interface path silently.
	ComputeView bool
	// ServeQueries enables non-blocking queries: after every batch the
	// pipeline publishes an immutable snapshot of the graph plus the
	// algorithm's property vector, behind an epoch counter with reader
	// refcounts. Concurrent readers then pin epochs through AcquireQuery
	// and read without ever blocking the update phase; the writer never
	// frees or reuses a pinned snapshot's memory (see internal/epoch).
	// Every epoch is published from the flat mirror, which serving keeps
	// whatever ComputeView says, so the marginal publication cost is one
	// property-vector copy per batch; the mirror's delta refresh is
	// charged to update. NewPipeline fails on a structure without a
	// Flattener, since there is then nothing to publish from.
	ServeQueries bool
	// Telemetry, when non-nil, receives one event per processed batch
	// (latencies, affected-set size, compute stats, ds profile deltas).
	// Nil disables instrumentation at near-zero cost.
	Telemetry *telemetry.Recorder
	// Tracer, when non-nil, records a span tree per batch — update,
	// view refresh, compute (with per-worker range spans), WAL append,
	// checkpoint — into a flight-recorder ring that is dumped next to the
	// poison file when a batch is quarantined and served by the telemetry
	// server's /trace endpoint. Nil disables tracing: the hot path then
	// performs no clock reads and no allocations on the tracer's behalf.
	Tracer *trace.Tracer
	// Durable, when non-nil, enables the crash-safety layer: every batch
	// is write-ahead logged before it is applied, checkpoints are written
	// periodically, and construction recovers whatever state the
	// directory already holds (see internal/durable and durable.go).
	// Nil disables durability at zero per-batch cost.
	Durable *durable.Config
	// Faults, when non-nil, is consulted at the start of the update,
	// compute, and publish phases (ops "update"/"compute"/"publish").
	// An injected stall sleeps in-phase — exactly where a watchdog must
	// catch it — and an injected error panics, which the durable path's
	// panic capture converts into the poison-batch protocol. Durability
	// I/O faults are injected separately through Durable.IO.
	Faults fault.Injector
	// DegradePolicy selects what a permanent (or retry-exhausted)
	// durability fault does: "degrade" keeps applying batches in memory
	// without logging, "read-only" refuses ingest but keeps serving
	// epoch-snapshot queries, "fail" (and "", the zero value) surfaces
	// the error — the pre-supervision behavior.
	DegradePolicy DegradePolicy
	// Health, when non-nil, is the shared health machine the pipeline
	// reports transitions to. The supervisor passes one Health through
	// every rebuild so degradations outlive pipeline instances; when nil
	// and DegradePolicy absorbs faults, the pipeline creates its own.
	Health *Health

	// phaseHook, when set (by the supervisor), observes phase boundaries:
	// phaseHook(name, false) at entry, phaseHook(name, true) at exit. The
	// watchdog derives per-phase deadlines from these signals.
	phaseHook func(name string, done bool)
}

// buildComponents constructs the data structure and engine for cfg; the
// durability layer rebuilds through the same path during recovery.
func buildComponents(cfg PipelineConfig) (ds.Graph, compute.Engine, error) {
	dcfg := cfg.DS
	dcfg.Directed = cfg.Directed
	dcfg.Threads = cfg.Threads
	dcfg.MaxNodesHint = cfg.MaxNodesHint
	g, err := ds.New(cfg.DataStructure, dcfg)
	if err != nil {
		return nil, nil, err
	}
	copts := cfg.Compute
	copts.Threads = cfg.Threads
	// Per-worker busy clocks cost two monotonic clock reads per worker
	// range per round, so only pay for them when an observer is attached
	// (per-batch events, straggler gauges, or batch traces consume them).
	if cfg.Telemetry != nil || cfg.Tracer.Enabled() {
		copts.WorkerTiming = true
	}
	engine, err := compute.NewEngine(cfg.Algorithm, cfg.Model, copts)
	if err != nil {
		return nil, nil, err
	}
	return g, engine, nil
}

// NewPipeline validates the config and builds the pipeline. With a
// durable config, construction opens the durability directory and
// recovers: latest valid checkpoint, then WAL tail replay — an empty
// directory recovers to an empty pipeline, so the first run and every
// restart share one code path.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if err := cfg.DegradePolicy.validate(); err != nil {
		return nil, err
	}
	if cfg.Health == nil && cfg.DegradePolicy != "" {
		// An explicit policy needs somewhere to record what it decided —
		// absorbed faults for degrade/read-only, the Failed transition
		// for fail. Only the zero policy (pure pre-supervision behavior)
		// runs without a machine.
		cfg.Health = NewHealth(cfg.Telemetry)
	}
	g, engine, err := buildComponents(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{g: g, engine: engine, rec: cfg.Telemetry, tr: cfg.Tracer, pcfg: cfg, health: cfg.Health}
	if err := p.initView(); err != nil {
		return nil, err
	}
	if cfg.ServeQueries {
		// Buffer reuse is negotiated with the mirror's double buffer.
		p.em = epoch.NewManager(true)
	}
	if cfg.Durable != nil {
		if err := p.initDurable(*cfg.Durable); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// initView attaches (or detaches) the flat mirror according to the config.
// Called at construction and again by the durability layer after it swaps
// in fresh components: a nil-or-fresh view is unbuilt, so the next Refresh
// full-builds from whatever topology the structure then holds.
func (p *Pipeline) initView() error {
	p.view = nil
	p.lastView = ds.RefreshStats{}
	if !p.pcfg.ComputeView && !p.pcfg.ServeQueries {
		return nil
	}
	threads := p.pcfg.Threads
	if threads <= 0 {
		threads = 1
	}
	v, ok := ds.NewComputeView(p.g, threads)
	if !ok {
		if p.pcfg.ServeQueries {
			return fmt.Errorf("core: %s has no flat mirror to publish query epochs from", p.pcfg.DataStructure)
		}
		return nil
	}
	if !compute.NeedsInAdjacency(p.pcfg.Algorithm, p.pcfg.Model) && !p.pcfg.ServeQueries {
		// The registered kernel never pulls from in-neighbors, so don't
		// pay to mirror that direction on every batch. Served queries
		// forbid the shortcut: a pinned epoch must answer in-neighborhood
		// reads regardless of the algorithm.
		v.MirrorOutOnly()
	}
	p.view = v
	return nil
}

// ComputeGraph is the graph the compute phase traverses: the flat mirror
// under ComputeView, else the data structure itself.
func (p *Pipeline) ComputeGraph() ds.Graph {
	if p.view != nil && p.pcfg.ComputeView {
		return p.view
	}
	return p.g
}

// LastViewRefresh reports the mirror refresh cost of the most recent batch
// (zero when no mirror is kept: neither ComputeView nor ServeQueries).
func (p *Pipeline) LastViewRefresh() ds.RefreshStats { return p.lastView }

// SetTelemetry installs (or removes, with nil) the batch recorder on a
// built pipeline.
func (p *Pipeline) SetTelemetry(rec *telemetry.Recorder) { p.rec = rec }

// SetTracer installs (or removes, with nil) the batch tracer on a built
// pipeline. Must not be called while a batch is in flight.
func (p *Pipeline) SetTracer(tr *trace.Tracer) { p.tr = tr }

// Tracer exposes the pipeline's tracer (nil when tracing is off).
func (p *Pipeline) Tracer() *trace.Tracer { return p.tr }

// Graph exposes the topology (read-only between updates).
func (p *Pipeline) Graph() ds.Graph { return p.g }

// Engine exposes the compute engine.
func (p *Pipeline) Engine() compute.Engine { return p.engine }

// Values exposes the vertex property array after the latest batch.
func (p *Pipeline) Values() []float64 { return p.engine.Values() }

// BatchLatency is the timing of one processed batch.
type BatchLatency struct {
	Update  time.Duration
	Compute time.Duration
}

// Total is the batch processing latency (Equation 1).
func (l BatchLatency) Total() time.Duration { return l.Update + l.Compute }

// Process ingests one batch (update phase) and runs the algorithm on the
// result (compute phase), returning both latencies.
//
// Insert-only streams still carry deletion-like events for the monotone
// weighted incremental algorithms: a duplicate insert overwrites the stored
// weight, and a value derived through the old weight may become stale in a
// way selective triggering cannot repair (see compute.WeightChangeAware).
// The overwrite scan runs outside the timed update phase — the paper's
// update phase likewise knows which edges it rewrote.
func (p *Pipeline) Process(batch graph.Batch) BatchLatency {
	if err := p.refuseUnhealthy(); err != nil {
		panic(err)
	}
	mb := MixedBatch{Adds: batch}
	if p.dur != nil {
		lat, err := p.processDurable(mb)
		if err != nil {
			// Only fatal durability I/O reaches here (poison batches are
			// quarantined, not returned); callers that need the error
			// should use ProcessMixed.
			panic(err)
		}
		return lat
	}
	lat, err := p.apply(mb)
	if err != nil {
		// apply fails only while deleting, and an insert-only batch has
		// no deletions.
		panic(err)
	}
	return lat
}

// record assembles and emits one telemetry event. Callers must guard with
// p.rec != nil so the disabled path allocates nothing.
func (p *Pipeline) record(edges, deletes, affected int, lat BatchLatency) {
	es := p.engine.Stats()
	ev := telemetry.BatchEvent{
		Repeat:         p.repeatTag,
		Batch:          p.batchIdx,
		Edges:          edges,
		Deletes:        deletes,
		Nodes:          p.g.NumNodes(),
		UpdateNS:       lat.Update.Nanoseconds(),
		ComputeNS:      lat.Compute.Nanoseconds(),
		Affected:       affected,
		Iterations:     es.Iterations,
		Processed:      es.Processed,
		EdgesTraversed: es.EdgesTraversed,
		Triggered:      es.Triggered,
		Skipped:        es.Skipped,
		TriggerFrac:    es.TriggerFraction(),
	}
	if used := es.WorkersUsed(); used > 0 {
		// Stats.WorkerBusyNS aliases engine scratch; the event outlives
		// the batch, so it gets a copy.
		ev.WorkerBusyNS = append([]int64(nil), es.WorkerBusyNS...)
		ev.WorkersUsed = used
		ev.Straggler = es.StragglerRatio()
	}
	if p.view != nil {
		ev.ViewNS = p.lastView.Duration.Nanoseconds()
		ev.ViewDirtyFrac = p.lastView.DirtyFraction()
		ev.ViewFull = p.lastView.Full
	}
	if p.em != nil {
		// publishEpoch ran just before record, so the latest epoch is this
		// batch's publication.
		ev.Epoch = p.em.LatestEpoch()
	}
	p.batchIdx++
	if prof, ok := ds.ProfileOf(p.g); ok {
		d := prof.Delta(&p.lastProf)
		p.lastProf = prof
		ev.DSEdgesIngested = d.EdgesIngested
		ev.DSInserted = d.Inserted
		ev.DSScanSteps = d.ScanSteps
		ev.DSLockConflicts = d.LockConflicts
		ev.DSMetaOps = d.MetaOps
		ev.DSImbalance = d.Imbalance()
		ev.DSTierPromotions = d.TierPromotions
		ev.DSTierDemotions = d.TierDemotions
	}
	p.rec.RecordBatch(&ev)
}

// overwrittenFor runs the pre-update weight-overwrite scan when (and only
// when) the engine asks for overwrite notifications.
func (p *Pipeline) overwrittenFor(batch graph.Batch) graph.Batch {
	if wca, ok := p.engine.(compute.WeightChangeAware); ok && wca.WantsWeightChanges() {
		return ds.Overwritten(p.g, batch)
	}
	return nil
}

// affectedOf deduplicates the batch's endpoint vertices — the affected
// array of Algorithm 1. (Marking is outside the timed compute phase; the
// paper's update phase likewise knows which vertices it touched.)
// Endpoints at or above NumNodes are skipped: a deletion naming a vertex
// the graph has never seen is a legal no-op, not an affected vertex.
func (p *Pipeline) affectedOf(batch graph.Batch) []graph.NodeID {
	n := p.g.NumNodes()
	for len(p.affectedMark) < n {
		p.affectedMark = append(p.affectedMark, 0)
	}
	p.affected = p.affected[:0]
	for _, e := range batch {
		if int(e.Src) < n && p.affectedMark[e.Src] == 0 {
			p.affectedMark[e.Src] = 1
			p.affected = append(p.affected, e.Src)
		}
		if int(e.Dst) < n && p.affectedMark[e.Dst] == 0 {
			p.affectedMark[e.Dst] = 1
			p.affected = append(p.affected, e.Dst)
		}
	}
	for _, v := range p.affected {
		p.affectedMark[v] = 0
	}
	return p.affected
}

// Metric selects which latency series to aggregate.
type Metric string

// Aggregatable latency series.
const (
	MetricUpdate  Metric = "update"
	MetricCompute Metric = "compute"
	MetricTotal   Metric = "total"
)

// RunConfig describes one measured experiment.
type RunConfig struct {
	PipelineConfig
	// Dataset generates the input stream.
	Dataset gen.Spec
	// Seed drives generation; repeat r uses Seed+r so repeats see the
	// same stream ordering per repeat index across configurations.
	Seed int64
	// Repeats re-runs the full stream on fresh state (default 1; the
	// paper uses 3).
	Repeats int
	// OnBatch, if set, observes each processed batch (used by the
	// architecture profiler to replay traces).
	OnBatch func(batch int, edges graph.Batch, p *Pipeline, lat BatchLatency)
	// OnPipeline, if set, observes each repeat's freshly built pipeline
	// before its first batch; the returned stop function (may be nil) is
	// called after the repeat's last batch, before the pipeline is closed.
	// The query-load generator attaches here so readers run concurrently
	// with the measured stream.
	OnPipeline func(p *Pipeline) (stop func())
}

// RunResult holds the per-batch latency series of all repeats.
type RunResult struct {
	BatchCount int
	// Update[r][b] / Compute[r][b] are seconds for repeat r, batch b.
	Update  [][]float64
	Compute [][]float64
}

// Run executes the experiment.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.PipelineConfig.Durable != nil {
		return nil, fmt.Errorf("core: Run measures repeats on fresh state and cannot use a durable pipeline (each repeat would recover the previous one); drive a durable Pipeline directly")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	cfg.PipelineConfig.Directed = cfg.Dataset.Directed
	if cfg.PipelineConfig.MaxNodesHint == 0 {
		cfg.PipelineConfig.MaxNodesHint = cfg.Dataset.NumNodes
	}
	res := &RunResult{}
	for r := 0; r < repeats; r++ {
		edges := cfg.Dataset.Generate(cfg.Seed + int64(r))
		if err := res.measureOnce(cfg.PipelineConfig, edges, cfg.Dataset.BatchSize, cfg.OnBatch, cfg.OnPipeline, r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StreamConfig measures a caller-provided edge stream (e.g. a SNAP edge
// list loaded with elio) instead of a generated dataset. Repeats re-run
// the identical stream on fresh state.
type StreamConfig struct {
	PipelineConfig
	Edges     []graph.Edge
	BatchSize int
	Repeats   int
	OnBatch   func(batch int, edges graph.Batch, p *Pipeline, lat BatchLatency)
	// OnPipeline mirrors RunConfig.OnPipeline.
	OnPipeline func(p *Pipeline) (stop func())
}

// RunStream executes the stream experiment.
func RunStream(cfg StreamConfig) (*RunResult, error) {
	if cfg.PipelineConfig.Durable != nil {
		return nil, fmt.Errorf("core: RunStream measures repeats on fresh state and cannot use a durable pipeline (each repeat would recover the previous one); drive a durable Pipeline directly")
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	res := &RunResult{}
	for r := 0; r < repeats; r++ {
		if err := res.measureOnce(cfg.PipelineConfig, cfg.Edges, cfg.BatchSize, cfg.OnBatch, cfg.OnPipeline, r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureOnce streams one repeat on a fresh pipeline, appending its latency
// series.
func (res *RunResult) measureOnce(pc PipelineConfig, edges []graph.Edge, batchSize int, onBatch func(int, graph.Batch, *Pipeline, BatchLatency), onPipeline func(*Pipeline) func(), repeat int) error {
	p, err := NewPipeline(pc)
	if err != nil {
		return err
	}
	p.repeatTag = repeat
	var stop func()
	if onPipeline != nil {
		stop = onPipeline(p)
	}
	batches := graph.Batches(edges, batchSize)
	if res.BatchCount == 0 {
		res.BatchCount = len(batches)
	} else if res.BatchCount != len(batches) {
		return fmt.Errorf("core: repeat %d produced %d batches, want %d", repeat, len(batches), res.BatchCount)
	}
	upd := make([]float64, 0, len(batches))
	cmp := make([]float64, 0, len(batches))
	for bi, b := range batches {
		lat := p.Process(b)
		upd = append(upd, lat.Update.Seconds())
		cmp = append(cmp, lat.Compute.Seconds())
		if onBatch != nil {
			onBatch(bi, b, p, lat)
		}
	}
	if stop != nil {
		stop()
	}
	if err := p.Close(); err != nil {
		return err
	}
	res.Update = append(res.Update, upd)
	res.Compute = append(res.Compute, cmp)
	return nil
}

// Series returns the per-batch series of one repeat for the metric, or an
// error for a metric outside the three aggregatable series.
func (r *RunResult) Series(metric Metric, repeat int) ([]float64, error) {
	u, c := r.Update[repeat], r.Compute[repeat]
	switch metric {
	case MetricUpdate:
		return u, nil
	case MetricCompute:
		return c, nil
	case MetricTotal:
		t := make([]float64, len(u))
		for i := range t {
			t[i] = u[i] + c[i]
		}
		return t, nil
	}
	return nil, fmt.Errorf("core: unknown metric %q (have %q, %q, %q)",
		metric, MetricUpdate, MetricCompute, MetricTotal)
}

// StageSummaries aggregates the metric into the paper's P1/P2/P3 stages:
// each stage pools the corresponding third of every repeat's batch series
// (Section IV-B's averaging methodology).
func (r *RunResult) StageSummaries(metric Metric) ([3]stats.Summary, error) {
	var out [3]stats.Summary
	var pooled [3][]float64
	for rep := range r.Update {
		series, err := r.Series(metric, rep)
		if err != nil {
			return out, err
		}
		for si, rg := range stats.Stages(len(series)) {
			pooled[si] = append(pooled[si], series[rg[0]:rg[1]]...)
		}
	}
	for i := range out {
		out[i] = stats.Summarize(pooled[i])
	}
	return out, nil
}

// UpdateShare reports, per stage, the fraction of batch processing latency
// spent in the update phase (Fig 8).
func (r *RunResult) UpdateShare() ([3]float64, error) {
	var out [3]float64
	upd, err := r.StageSummaries(MetricUpdate)
	if err != nil {
		return out, err
	}
	tot, err := r.StageSummaries(MetricTotal)
	if err != nil {
		return out, err
	}
	for i := range out {
		out[i] = stats.Ratio(upd[i].Mean, tot[i].Mean)
	}
	return out, nil
}

// MixedBatch couples the insertions and deletions that arrived in one
// stream window. The paper's framework handles insert-only streams; mixed
// streams are the natural extension (STINGER-style) and are supported by
// every bundled data structure.
type MixedBatch struct {
	Adds graph.Batch
	Dels graph.Batch
}

// ProcessMixed ingests the additions, applies the deletions, and runs the
// compute phase. It fails up front if the data structure cannot delete or
// if the engine's results would be invalidated by deletions (monotone
// incremental algorithms; see compute.Engine.HandlesDeletions).
//
// On a durable pipeline the batch is validated, write-ahead logged, and
// applied under panic-recovery with retries; a batch that persistently
// fails is quarantined and the returned error is nil — the stream keeps
// moving (see PoisonFiles). A non-nil error then means unrecoverable
// durability I/O, not a bad batch.
func (p *Pipeline) ProcessMixed(mb MixedBatch) (BatchLatency, error) {
	if err := p.refuseUnhealthy(); err != nil {
		return BatchLatency{}, err
	}
	if err := p.checkMixedSupport(mb); err != nil {
		return BatchLatency{}, err
	}
	if p.dur != nil {
		return p.processDurable(mb)
	}
	return p.apply(mb)
}

// refuseUnhealthy gates ingest on the health machine: a read-only
// pipeline refuses the batch but keeps serving queries; a failed one
// refuses everything. Healthy and degraded-durability pipelines ingest
// normally.
func (p *Pipeline) refuseUnhealthy() error {
	switch st := p.health.State(); {
	case st >= Failed:
		p.health.NoteRefused()
		return ErrFailed
	case st >= ReadOnly:
		p.health.NoteRefused()
		return ErrReadOnly
	}
	return nil
}

// Health exposes the pipeline's health machine (nil when neither a
// degrade policy nor an explicit Health was configured; HealthState
// reads through a nil Health as healthy).
func (p *Pipeline) Health() *Health { return p.health }

// Fence marks this instance superseded: every subsequent durable file
// operation is refused. The supervisor fences a pipeline it is about to
// replace so a worker abandoned mid-stall cannot write WAL or
// checkpoint files the rebuilt instance now owns.
func (p *Pipeline) Fence() { p.fenced.Store(true) }

// HealthReport assembles the structured exit report: final health
// state, transition history, and the counters that describe what the
// run survived (retries, restarts, sheds) and what it lost
// (quarantined batches).
func (p *Pipeline) HealthReport() HealthReport {
	r := p.health.report()
	if p.dur != nil {
		r.DurableRetry = p.dur.man.Retries()
	}
	r.Quarantined = append([]string(nil), p.poisoned...)
	if s, ok := p.pcfg.Faults.(*fault.Schedule); ok && s != nil {
		r.Injections = s.Summary()
	}
	if r.Injections == nil && p.pcfg.Durable != nil {
		if s, ok := p.pcfg.Durable.IO.(*fault.Schedule); ok && s != nil {
			r.Injections = s.Summary()
		}
	}
	return r
}

// enterPhase fires the supervisor's watchdog hook and the phase fault
// injector, in that order — an injected stall must sleep while the
// watchdog already sees the phase in flight. An injected error panics;
// the durable path's panic capture turns it into the poison-batch
// protocol, and the supervisor's worker capture turns it into a
// restart on the direct path.
func (p *Pipeline) enterPhase(name string, op fault.Op) {
	if hook := p.pcfg.phaseHook; hook != nil {
		hook(name, false)
	}
	if err := fault.Inject(p.pcfg.Faults, op); err != nil {
		panic(err)
	}
}

func (p *Pipeline) exitPhase(name string) {
	if hook := p.pcfg.phaseHook; hook != nil {
		hook(name, true)
	}
}

// checkMixedSupport rejects deletion batches the components cannot
// process — a configuration error, checked before anything is logged so
// it is never mistaken for a poison batch.
func (p *Pipeline) checkMixedSupport(mb MixedBatch) error {
	if len(mb.Dels) == 0 {
		return nil
	}
	if !ds.SupportsDelete(p.g) {
		return fmt.Errorf("core: data structure %T does not support deletions", p.g)
	}
	if !p.engine.HandlesDeletions() {
		return fmt.Errorf("core: %s/%s cannot incrementally process deletions (use the fs model)",
			p.engine.Name(), p.engine.Model())
	}
	return nil
}

// apply runs the two phases of one mixed batch against the in-memory
// components: the undecorated execution path shared by direct processing,
// durable processing, and WAL replay.
//
// Trace ownership: when no batch trace is in flight (direct processing,
// WAL replay) apply starts and finishes one; on the durable path
// processDurable already opened it (so the WAL append span precedes the
// phases) and apply only contributes phase spans and batch attributes.
func (p *Pipeline) apply(mb MixedBatch) (BatchLatency, error) {
	var lat BatchLatency
	owned := p.bt == nil && p.tr.Enabled()
	if owned {
		p.bt = p.tr.StartBatch(p.batchIdx)
	}
	olds := p.overwrittenFor(mb.Adds)

	var err error
	if p.tr.PprofLabels() {
		err = p.updateLabeled(mb, &lat)
	} else {
		err = p.updatePhase(mb, &lat)
	}
	if err != nil {
		if owned {
			p.abortTrace(err)
		}
		return lat, err
	}
	cg := p.ComputeGraph()

	// Overwritten weights and true deletions invalidate in one call so the
	// cone is grown against a consistent pre-reset value array.
	if invalidating := append(olds, mb.Dels...); len(invalidating) > 0 {
		if da, ok := p.engine.(compute.DeletionAware); ok {
			da.NotifyDeletions(cg, invalidating)
		}
	}
	p.mixedScratch = append(append(p.mixedScratch[:0], mb.Adds...), mb.Dels...)
	aff := p.affectedOf(p.mixedScratch)
	if p.tr.PprofLabels() {
		p.computeLabeled(cg, aff, &lat)
	} else {
		p.computePhase(cg, aff, &lat)
	}
	if p.em != nil {
		p.publishEpoch()
	}
	if p.rec != nil {
		p.record(len(mb.Adds), len(mb.Dels), len(aff), lat)
	}
	if p.bt != nil {
		p.stampTrace(mb, len(aff), lat)
		if owned {
			bt := p.bt
			p.bt = nil
			bt.Finish()
		}
	}
	return lat, nil
}

// updatePhase is the timed update side of one batch: ingest, deletions,
// and the flat-mirror refresh (whose cost belongs to the update phase —
// the mirror is part of ingesting the batch, exactly as GraphTango
// charges its flat-side maintenance).
func (p *Pipeline) updatePhase(mb MixedBatch, lat *BatchLatency) error {
	p.enterPhase("update", fault.OpUpdate)
	defer p.exitPhase("update")
	sp := p.bt.Start("update")
	t0 := time.Now()
	p.g.Update(mb.Adds)
	if len(mb.Dels) > 0 {
		if err := p.g.(ds.Deleter).Delete(mb.Dels); err != nil {
			sp.SetStr("error", err.Error())
			sp.End()
			return err
		}
	}
	lat.Update = time.Since(t0)
	sp.SetInt("edges", int64(len(mb.Adds)))
	if len(mb.Dels) > 0 {
		sp.SetInt("deletes", int64(len(mb.Dels)))
	}
	sp.End()
	if p.view != nil {
		// The refresh is about to scribble the double buffer's spare
		// arrays, which belong to the snapshot superseded two publishes
		// ago. If readers still pin it, abandon the spares to the GC (the
		// rebuild then allocates fresh arrays) instead of tearing the
		// pinned epoch — the writer never frees under a reader.
		if p.em != nil && p.em.ReclaimSpare() {
			p.view.DropSpares()
		}
		vsp := p.bt.Start("view.refresh")
		p.lastView = p.view.Refresh(mb.Adds, mb.Dels)
		lat.Update += p.lastView.Duration
		vsp.SetFloat("dirty_frac", p.lastView.DirtyFraction())
		if p.lastView.Full {
			vsp.SetInt("full", 1)
		}
		vsp.End()
		if p.rec != nil {
			p.rec.RecordViewRefresh(p.lastView.Duration, p.lastView.DirtyFraction(), p.lastView.Full)
		}
	}
	return nil
}

// computePhase is the timed compute side: PerformAlg under a compute span
// whose context the engine threads down to per-worker range spans.
func (p *Pipeline) computePhase(cg ds.Graph, aff []graph.NodeID, lat *BatchLatency) {
	p.enterPhase("compute", fault.OpCompute)
	defer p.exitPhase("compute")
	sp := p.bt.Start("compute")
	// Re-arm every batch: each batch trace is a fresh span tree, and the
	// zero Ctx (tracing off) disables the engine's span recording.
	if te, ok := p.engine.(compute.Traceable); ok {
		te.SetTrace(sp.Ctx())
	}
	t1 := time.Now()
	p.engine.PerformAlg(cg, aff)
	lat.Compute = time.Since(t1)
	es := p.engine.Stats()
	sp.SetInt("affected", int64(len(aff)))
	sp.SetInt("iterations", int64(es.Iterations))
	sp.SetInt("processed", int64(es.Processed))
	if s := es.StragglerRatio(); s > 0 {
		sp.SetFloat("straggler", s)
	}
	sp.End()
}

// updateLabeled / computeLabeled wrap the phases in pprof labels
// (batch/stage/ds/alg/model). They are separate methods so apply itself
// contains no closures: a func literal capturing locals would force those
// locals to the heap on every call, labels on or off.
func (p *Pipeline) updateLabeled(mb MixedBatch, lat *BatchLatency) error {
	var err error
	p.tr.LabelDo(p.traceSeq(), "update", func() { err = p.updatePhase(mb, lat) })
	return err
}

func (p *Pipeline) computeLabeled(cg ds.Graph, aff []graph.NodeID, lat *BatchLatency) {
	p.tr.LabelDo(p.traceSeq(), "compute", func() { p.computePhase(cg, aff, lat) })
}

// traceSeq is the in-flight batch's trace sequence number (0 when no
// trace is open).
func (p *Pipeline) traceSeq() uint64 {
	if p.bt == nil {
		return 0
	}
	return p.bt.Seq
}

// stampTrace attaches the batch-level attributes the flight recorder
// indexes on: sizes, phase latencies, and the compute stats that tell a
// straggler or a triggering storm apart from a big batch.
func (p *Pipeline) stampTrace(mb MixedBatch, affected int, lat BatchLatency) {
	bt := p.bt
	es := p.engine.Stats()
	bt.SetInt("edges", int64(len(mb.Adds)))
	if len(mb.Dels) > 0 {
		bt.SetInt("deletes", int64(len(mb.Dels)))
	}
	bt.SetInt("affected", int64(affected))
	bt.SetInt("iterations", int64(es.Iterations))
	if es.Triggered+es.Skipped > 0 {
		bt.SetInt("triggered", int64(es.Triggered))
		bt.SetInt("skipped", int64(es.Skipped))
	}
	if s := es.StragglerRatio(); s > 0 {
		bt.SetFloat("straggler", s)
	}
	if p.view != nil {
		bt.SetFloat("view_dirty_frac", p.lastView.DirtyFraction())
	}
	bt.SetInt("update_ns", lat.Update.Nanoseconds())
	bt.SetInt("compute_ns", lat.Compute.Nanoseconds())
}

// abortTrace seals the in-flight batch trace with a failure cause (batch
// rejected before the compute phase ran).
func (p *Pipeline) abortTrace(err error) {
	bt := p.bt
	if bt == nil {
		return
	}
	p.bt = nil
	bt.SetStr("error", err.Error())
	bt.Finish()
}
