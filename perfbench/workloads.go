package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/gen"
	"sagabench/internal/graph"
)

// workload is one input stream plus the stack configuration that ingests
// it. The program under test sees only the generated batches.
type workload struct {
	name string
	// spec shapes the generated edge stream; batchSize cuts it.
	spec      gen.Spec
	batchSize int
	// delEvery > 0 makes every batch also delete every delEvery-th edge
	// of the previous batch (0: insert-only).
	delEvery int
	pipeline core.PipelineConfig
	// open selects the supervised, durable, open-loop path: batches are
	// submitted at rate per second regardless of how fast they complete.
	// Otherwise batches go through direct ProcessMixed calls, each issued
	// when the previous one returns (closed loop).
	open bool
	rate float64
}

// threads is the worker count of both phases: the reference host has two
// vCPUs, and GOMAXPROCS stays at its default.
const threads = 2

// ljShaped is the LiveJournal-like short-tailed stream of gen's registry,
// resized to edges edges over a proportionally sized vertex space.
func ljShaped(edges int) gen.Spec {
	s := gen.MustDataset("lj", gen.ProfileDefault)
	s.NumNodes = s.NumNodes * edges / s.NumEdges
	s.NumEdges = edges
	return s
}

// talkShaped is the talk-like stream (one out-degree hub holding 45% of
// sources), scaled by factor in both edges and vertices.
func talkShaped(factor int) gen.Spec {
	s := gen.MustDataset("talk", gen.ProfileDefault)
	s.NumNodes *= factor
	s.NumEdges *= factor
	return s
}

var workloads = []workload{
	{
		// Compute-bound: FS PageRank recomputes every vertex every batch
		// over the flat mirror; ingest, publish and durability are small.
		name:      "fs-pr-compute",
		spec:      ljShaped(200000),
		batchSize: 1000,
		pipeline: core.PipelineConfig{
			DataStructure: "adjshared", Algorithm: "pr", Model: compute.FS,
			ComputeView: true, ServeQueries: true,
		},
	},
	{
		// Publish- and durability-bound: INC CC touches little per batch,
		// while the export publish path rebuilds a full CSR each batch
		// and the WAL and checkpoints sit on the batch's path.
		name:      "inc-cc-serve",
		spec:      ljShaped(240000),
		batchSize: 1000,
		pipeline: core.PipelineConfig{
			DataStructure: "adjshared", Algorithm: "cc", Model: compute.INC,
			ServeQueries: true,
		},
		open: true,
		// About half the supervised pipeline's capacity at the end of this
		// stream, where batches cost most: 29 batches/s over the last tenth
		// on a 2-vCPU host at the commit that introduced the benchmark
		// (44 batches/s averaged over the whole stream).
		rate: 14,
	},
	{
		// Mixed update/compute on a hub: deletes ride along with inserts,
		// driving hybrid tier demotions and large mirror dirty fractions.
		name:      "inc-pr-hub-mixed",
		spec:      talkShaped(30),
		batchSize: 1000,
		delEvery:  4,
		pipeline: core.PipelineConfig{
			DataStructure: "hybrid", Algorithm: "pr", Model: compute.INC,
			ComputeView: true, ServeQueries: true,
			Compute: incPRExact,
		},
	},
}

// incPRExact configures INC PageRank so its answers meet
// compute.Tolerance("pr") on a 360K-vertex stream. The default trigger
// threshold, 0.5/|V| (1.4e-6 here), is itself above that 1e-6 tolerance,
// and the reference's default 20-iteration cap stops short of it too;
// PRTolerance and PRMaxIters only shape the reference, since the INC
// engine iterates until nothing triggers.
var incPRExact = compute.Options{Epsilon: 1e-8, PRTolerance: 1e-10, PRMaxIters: 200}

func workloadNamed(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// pipelineConfig completes the workload's pipeline config for its stream.
func (w workload) pipelineConfig() core.PipelineConfig {
	c := w.pipeline
	c.Directed = w.spec.Directed
	c.Threads = threads
	c.MaxNodesHint = w.spec.NumNodes
	return c
}

// stream is the generated input of one run: the batches every pass
// replays, the number of edge operations they carry, and a digest that
// identifies them.
type stream struct {
	batches []core.MixedBatch
	ops     int
	digest  uint64
}

// makeStream generates the workload's batches from seed. The same seed
// always gives the same batches and digest.
func makeStream(w workload, seed int64) stream {
	cut := graph.Batches(w.spec.Generate(seed), w.batchSize)
	st := stream{batches: make([]core.MixedBatch, len(cut))}
	for i, adds := range cut {
		mb := core.MixedBatch{Adds: adds}
		if w.delEvery > 0 && i > 0 {
			prev := cut[i-1]
			for j := w.delEvery - 1; j < len(prev); j += w.delEvery {
				mb.Dels = append(mb.Dels, prev[j])
			}
		}
		st.batches[i] = mb
		st.ops += len(mb.Adds) + len(mb.Dels)
	}
	st.digest = digest(st.batches)
	return st
}

// digest is FNV-1a over every batch's sizes and edges, in stream order.
func digest(batches []core.MixedBatch) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	word := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:4], v)
		h.Write(buf[:4])
	}
	for _, mb := range batches {
		word(uint32(len(mb.Adds)))
		word(uint32(len(mb.Dels)))
		for _, b := range [2]graph.Batch{mb.Adds, mb.Dels} {
			for _, e := range b {
				binary.LittleEndian.PutUint32(buf[0:], uint32(e.Src))
				binary.LittleEndian.PutUint32(buf[4:], uint32(e.Dst))
				binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(float32(e.Weight)))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}
