package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/crosscheck"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/epoch"
	"sagabench/internal/graph"
)

func servingCfg(dsName string, view bool) core.PipelineConfig {
	cfg := pipelineCfg(dsName, "cc", compute.INC)
	cfg.ComputeView = view
	cfg.ServeQueries = true
	return cfg
}

// sortedRun copies and ID-sorts an adjacency run so structures with
// insertion-ordered runs compare against the oracle's sorted ones.
func sortedRun(run []graph.Neighbor) []graph.Neighbor {
	out := append([]graph.Neighbor(nil), run...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestEpochLifecycle walks publish→pin→advance→release with compute on
// the mirror and on the structure's interface — both publish from the
// double-buffered mirror — checking every pinned epoch against a
// sequential oracle.
func TestEpochLifecycle(t *testing.T) {
	for _, view := range []bool{true, false} {
		view := view
		t.Run(map[bool]string{true: "view", false: "interface"}[view], func(t *testing.T) {
			p, err := core.NewPipeline(servingCfg("adjshared", view))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Before the first batch: enabled but nothing published.
			if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
				t.Fatalf("AcquireQuery before first batch: %v, want ErrNoEpoch", err)
			}

			oracle := graph.NewOracle(true)
			stream := crosscheck.NewStream(crosscheck.StreamConfig{
				Seed: 7, Batches: 6, BatchSize: 150, NumNodes: 48, Directed: true,
			})
			var pinned *core.QueryHandle
			var pinnedFP uint64
			for bi, st := range stream {
				if _, err := p.ProcessMixed(core.MixedBatch{Adds: st.Adds}); err != nil {
					t.Fatal(err)
				}
				oracle.Update(st.Adds)

				h, err := p.AcquireQuery()
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				if got, want := h.Epoch(), uint64(bi+1); got != want {
					t.Fatalf("batch %d: epoch %d, want %d", bi, got, want)
				}
				if h.Batch() != bi {
					t.Fatalf("batch %d: handle reports batch %d", bi, h.Batch())
				}
				if h.Staleness() != 0 {
					t.Fatalf("batch %d: fresh handle staleness %d", bi, h.Staleness())
				}
				if h.NumNodes() != oracle.NumNodes() {
					t.Fatalf("batch %d: %d nodes, oracle %d", bi, h.NumNodes(), oracle.NumNodes())
				}
				if h.NumEdges() != oracle.NumEdges() {
					t.Fatalf("batch %d: %d edges, oracle %d", bi, h.NumEdges(), oracle.NumEdges())
				}
				for v := 0; v < oracle.NumNodes(); v++ {
					id := graph.NodeID(v)
					got := sortedRun(h.Out(id))
					want := oracle.Out(id)
					if len(got) != len(want) {
						t.Fatalf("batch %d vertex %d: %d out-neighbors, oracle %d", bi, v, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || got[i].Weight != want[i].Weight {
							t.Fatalf("batch %d vertex %d: neighbor %d is %v, oracle %v", bi, v, i, got[i], want[i])
						}
					}
					if h.InDegree(id) != oracle.InDegree(id) {
						t.Fatalf("batch %d vertex %d: in-degree %d, oracle %d", bi, v, h.InDegree(id), oracle.InDegree(id))
					}
				}
				// The published property vector is the engine's at that batch.
				if vals := h.Values(); len(vals) != h.NumNodes() {
					t.Fatalf("batch %d: %d values for %d nodes", bi, len(vals), h.NumNodes())
				}
				if bi == 2 {
					// Hold this epoch across the rest of the stream.
					pinned = h
					pinnedFP = h.Snapshot().Fingerprint()
					continue
				}
				if err := h.ReleaseChecked(); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
			}

			// The held epoch must have aged but stayed bit-identical.
			if got, want := pinned.Staleness(), uint64(len(stream)-3); got != want {
				t.Fatalf("pinned staleness %d, want %d", got, want)
			}
			if got := pinned.Snapshot().Fingerprint(); got != pinnedFP {
				t.Fatalf("pinned epoch scribbled: fingerprint %#x -> %#x", pinnedFP, got)
			}
			if err := pinned.ReleaseChecked(); err != nil {
				t.Fatal(err)
			}
			if pins := p.Epochs().Stats().Pins; pins != 0 {
				t.Fatalf("%d pins outstanding after release", pins)
			}
		})
	}
}

func TestAcquireQueryDisabled(t *testing.T) {
	p, err := core.NewPipeline(pipelineCfg("adjshared", "cc", compute.INC))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrQueriesOff) {
		t.Fatalf("AcquireQuery without ServeQueries: %v, want ErrQueriesOff", err)
	}
	if _, err := core.StartQueryLoad(p, core.QueryLoadConfig{}); !errors.Is(err, core.ErrQueriesOff) {
		t.Fatalf("StartQueryLoad without ServeQueries: %v, want ErrQueriesOff", err)
	}
	if p.Epochs() != nil {
		t.Fatal("Epochs() non-nil without ServeQueries")
	}
}

// TestCloseWithPinnedHandle verifies Close stops hand-out while handles
// already pinned keep reading valid immutable state.
func TestCloseWithPinnedHandle(t *testing.T) {
	p, err := core.NewPipeline(servingCfg("adjshared", true))
	if err != nil {
		t.Fatal(err)
	}
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AcquireQuery(); !errors.Is(err, core.ErrNoEpoch) {
		t.Fatalf("AcquireQuery after Close: %v, want ErrNoEpoch", err)
	}
	if h.NumNodes() != 3 || h.OutDegree(0) != 1 {
		t.Fatal("pinned handle lost data after Close")
	}
	if _, ok := h.HasEdge(1, 2); !ok {
		t.Fatal("pinned handle lost edge after Close")
	}
	if err := h.ReleaseChecked(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochBufferReuse pins down both halves of the reclamation protocol
// on the compute-view path: with no readers the double buffer is
// reclaimed (zero-reader fast path, no drops); with a reader holding the
// spare's owner the writer drops the buffers and the held epoch survives.
func TestEpochBufferReuse(t *testing.T) {
	batchAt := func(round int) graph.Batch {
		var b graph.Batch
		for src := 0; src < 24; src++ {
			b = append(b, graph.Edge{
				Src:    graph.NodeID(src),
				Dst:    graph.NodeID((src + 1 + round) % 24),
				Weight: graph.Weight(1 + round),
			})
		}
		return b
	}

	// No readers: every rebuild after the second reuses the spare.
	p, err := core.NewPipeline(servingCfg("adjshared", true))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		p.Process(batchAt(r))
	}
	st := p.Epochs().Stats()
	p.Close()
	if st.Reclaimed == 0 {
		t.Fatalf("no buffers reclaimed with zero readers: %+v", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("%d buffers dropped with zero readers", st.Dropped)
	}

	// A held handle forces the writer onto the drop path.
	p, err = core.NewPipeline(servingCfg("adjshared", true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(batchAt(0))
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	fp := h.Snapshot().Fingerprint()
	for r := 1; r < 4; r++ {
		p.Process(batchAt(r))
	}
	st = p.Epochs().Stats()
	if st.Dropped == 0 {
		t.Fatalf("writer never dropped buffers despite a pinned epoch: %+v", st)
	}
	if got := h.Snapshot().Fingerprint(); got != fp {
		t.Fatalf("held epoch scribbled while writer advanced: %#x -> %#x", fp, got)
	}
	if err := h.ReleaseChecked(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochServeWithoutComputeView pins down the contract of serving
// queries while compute stays on the interface path: compute traverses
// the structure itself and produces bit-identical values to an unserved
// pipeline, yet every epoch is published from the delta-maintained
// mirror, equals a full export of the structure, and takes part in the
// double buffer's reuse protocol.
func TestEpochServeWithoutComputeView(t *testing.T) {
	for _, dsName := range ds.Names() {
		dsName := dsName
		t.Run(dsName, func(t *testing.T) {
			t.Parallel()
			dels := supportsDeletes(dsName)
			for _, directed := range []bool{true, false} {
				stream := viewMixedStream(0x5E7E+int64(len(dsName)), 8, 150, 64)
				for _, alg := range []string{"cc", "pr", "sssp"} {
					name := fmt.Sprintf("%s/%s/directed=%v", dsName, alg, directed)
					mk := func(serve bool) *core.Pipeline {
						p, err := core.NewPipeline(core.PipelineConfig{
							DataStructure: dsName,
							Algorithm:     alg,
							Model:         compute.INC,
							Directed:      directed,
							Threads:       1,
							ServeQueries:  serve,
						})
						if err != nil {
							t.Fatal(err)
						}
						return p
					}
					plain, served := mk(false), mk(true)
					if served.ComputeGraph() != served.Graph() {
						t.Fatalf("%s: compute traverses the mirror without ComputeView", name)
					}
					var held *core.QueryHandle
					var heldFP uint64
					var before epoch.Stats
					for bi, mb := range stream {
						if !dels {
							mb.Dels = nil
						}
						if _, err := plain.ProcessMixed(mb); err != nil {
							t.Fatalf("%s plain batch %d: %v", name, bi, err)
						}
						if _, err := served.ProcessMixed(mb); err != nil {
							t.Fatalf("%s served batch %d: %v", name, bi, err)
						}
						got, want := served.Values(), plain.Values()
						if len(got) != len(want) {
							t.Fatalf("%s batch %d: %d values, want %d", name, bi, len(got), len(want))
						}
						for v := range got {
							if got[v] != want[v] {
								t.Fatalf("%s batch %d vertex %d: served %v, unserved %v", name, bi, v, got[v], want[v])
							}
						}

						h, err := served.AcquireQuery()
						if err != nil {
							t.Fatalf("%s batch %d: %v", name, bi, err)
						}
						if err := h.Snapshot().CheckConsistent(); err != nil {
							t.Fatalf("%s batch %d: %v", name, bi, err)
						}
						exported := graph.BuildCSR(served.Graph().NumNodes(), ds.ExportEdges(served.Graph()))
						if err := csrRunsEqual(&h.Snapshot().CSR, exported, directed); err != nil {
							t.Fatalf("%s batch %d: published epoch vs export: %v", name, bi, err)
						}

						// Hold batch 3's epoch across batches 4 and 5. Batch 5's
						// refresh wants the buffers it owns: the writer must drop
						// them, not reclaim them.
						switch bi {
						case 3:
							held, heldFP = h, h.Snapshot().Fingerprint()
							continue
						case 4:
							before = served.Epochs().Stats()
						case 5:
							st := served.Epochs().Stats()
							if st.Dropped != before.Dropped+1 || st.Reclaimed != before.Reclaimed {
								t.Fatalf("%s: batch under a held pin moved counters %+v -> %+v, want one drop and no reclaim",
									name, before, st)
							}
							if got := held.Snapshot().Fingerprint(); got != heldFP {
								t.Fatalf("%s: held epoch scribbled: %#x -> %#x", name, heldFP, got)
							}
							if err := held.ReleaseChecked(); err != nil {
								t.Fatal(err)
							}
						}
						h.Release()
					}
					plain.Close()
					served.Close()
				}
			}
		})
	}
}

// csrRunsEqual compares two CSRs run by run, ignoring the order within a
// run (structures publish in storage order, BuildCSR sorts by ID). The
// in-direction is compared only for directed graphs, where it is stored
// separately.
func csrRunsEqual(got, want *graph.CSR, directed bool) error {
	type dir struct {
		name       string
		gi, wi     []int64
		gadj, wadj []graph.Neighbor
	}
	dirs := []dir{{"out", got.OutIndex, want.OutIndex, got.OutAdj, want.OutAdj}}
	if directed {
		dirs = append(dirs, dir{"in", got.InIndex, want.InIndex, got.InAdj, want.InAdj})
	}
	for _, d := range dirs {
		if len(d.gi) != len(d.wi) {
			return fmt.Errorf("%s index has %d entries, want %d", d.name, len(d.gi), len(d.wi))
		}
		for v := 0; v+1 < len(d.gi); v++ {
			g := sortedRun(d.gadj[d.gi[v]:d.gi[v+1]])
			w := sortedRun(d.wadj[d.wi[v]:d.wi[v+1]])
			if len(g) != len(w) {
				return fmt.Errorf("vertex %d: %s-run of %d, want %d", v, d.name, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					return fmt.Errorf("vertex %d: %s-neighbor %d is %v, want %v", v, d.name, i, g[i], w[i])
				}
			}
		}
	}
	return nil
}

// TestQueryHandleFrozen runs a full algorithm on a pinned epoch through
// the ds.Graph adapter — the temporal-analytics use of a handle.
func TestQueryHandleFrozen(t *testing.T) {
	p, err := core.NewPipeline(servingCfg("adjshared", true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 3, Dst: 4, Weight: 1}})
	h, err := p.AcquireQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	fg := h.Frozen()
	if fg.NumNodes() != h.NumNodes() {
		t.Fatalf("frozen graph has %d nodes, handle %d", fg.NumNodes(), h.NumNodes())
	}
	var buf []graph.Neighbor
	if got := len(fg.OutNeigh(0, buf)); got != 1 {
		t.Fatalf("frozen OutNeigh(0) has %d records, want 1", got)
	}
}

// TestQueryLoadLeak asserts Stop joins every reader goroutine.
func TestQueryLoadLeak(t *testing.T) {
	p, err := core.NewPipeline(servingCfg("adjshared", true))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Process(graph.Batch{{Src: 0, Dst: 1, Weight: 1}})

	before := runtime.NumGoroutine()
	ql, err := core.StartQueryLoad(p, core.QueryLoadConfig{Readers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	stats := ql.Stop()
	if stats.Violations != 0 {
		t.Fatalf("violations on a quiescent graph: %s", stats.FirstViolation)
	}
	if stats.Queries == 0 {
		t.Fatal("readers served no queries")
	}
	// Allow the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("query load leaked goroutines: %d before, %d after", before, after)
	}
}

// TestRunStreamOnPipeline verifies the hook sees each repeat's pipeline
// and its stop function runs before the pipeline closes.
func TestRunStreamOnPipeline(t *testing.T) {
	var started, stopped int
	cfg := servingCfg("adjshared", true)
	res, err := core.RunStream(core.StreamConfig{
		PipelineConfig: cfg,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
			{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 0, Weight: 1},
		},
		BatchSize: 2,
		Repeats:   2,
		OnPipeline: func(p *core.Pipeline) func() {
			started++
			if p.Epochs() == nil {
				t.Error("OnPipeline pipeline does not serve queries")
			}
			return func() {
				stopped++
				// The pipeline must still be open: the last epoch is
				// acquirable inside the stop callback.
				h, err := p.AcquireQuery()
				if err != nil {
					t.Errorf("AcquireQuery in stop: %v", err)
					return
				}
				h.Release()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 || stopped != 2 {
		t.Fatalf("hook ran %d/%d times, want 2/2", started, stopped)
	}
	if res.BatchCount != 2 {
		t.Fatalf("BatchCount = %d, want 2", res.BatchCount)
	}
}
