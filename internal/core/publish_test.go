package core

import (
	"testing"

	"sagabench/internal/compute"
	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// TestPublishEpochAllocs locks the publish step's steady-state cost: with
// no pins, no recorder and no tracer, publishing an epoch allocates the
// Snapshot and the property-vector copy and nothing else — the CSR is
// the mirror the update phase already refreshed.
func TestPublishEpochAllocs(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{
		DataStructure: "adjshared",
		Algorithm:     "cc",
		Model:         compute.INC,
		Directed:      true,
		Threads:       1,
		ServeQueries:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var b graph.Batch
	for v := graph.NodeID(0); v < 64; v++ {
		b = append(b, graph.Edge{Src: v, Dst: (v*7 + 1) % 64, Weight: 1})
	}
	for r := 0; r < 3; r++ {
		if _, err := p.ProcessMixed(MixedBatch{Adds: b}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, p.publishEpoch); allocs > 2 {
		t.Fatalf("publishEpoch allocates %.1f objects per call, want at most 2 (Snapshot + values)", allocs)
	}
}

// TestServeQueriesNeedsMirror checks that a structure the mirror cannot
// flatten is refused when serving queries (there is no other publish
// path) and still accepted for ComputeView alone, where compute falls
// back to the interface.
func TestServeQueriesNeedsMirror(t *testing.T) {
	for _, serve := range []bool{true, false} {
		p := &Pipeline{
			g:    struct{ ds.Graph }{ds.MustNew("adjshared", ds.Config{Directed: true})},
			pcfg: PipelineConfig{DataStructure: "wrapped", ComputeView: true, ServeQueries: serve},
		}
		err := p.initView()
		if serve && err == nil {
			t.Fatal("ServeQueries accepted a structure with no flat mirror")
		}
		if !serve && (err != nil || p.view != nil) {
			t.Fatalf("ComputeView alone: err %v, view %v; want the interface fallback", err, p.view)
		}
	}
}
