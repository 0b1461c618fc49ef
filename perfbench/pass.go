package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"sagabench/internal/core"
	"sagabench/internal/graph"
)

// pass is one replay of the whole stream on a freshly built pipeline.
type pass struct {
	setup   time.Duration
	batches int // batches that became visible
	failed  int // batches refused, shed, errored or quarantined
	ops     int // edge inserts plus deletes applied
	wall    time.Duration
	// visibleMS is each batch's submit-to-visible latency.
	visibleMS []float64
	reader    readerStats
	res       resources
	final     finalState
	open      *openStats // open-loop passes only
	trace     *passTrace // traced passes only
}

// resources is what the process spent during a pass's stream.
type resources struct {
	cpu        time.Duration // user + system, whole process
	peakLive   uint64        // bytes, largest live heap seen after a GC
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// meter reads process CPU time and allocation counters around a stream
// and samples the live heap while it runs.
type meter struct {
	cpu0   time.Duration
	mem0   runtime.MemStats
	sample []metrics.Sample
	peak   uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startMeter() *meter {
	m := &meter{sample: []metrics.Sample{{Name: liveHeapMetric}}}
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = processCPU()
	return m
}

// sampleHeap folds the live heap as of the latest GC into the peak.
func (m *meter) sampleHeap() {
	metrics.Read(m.sample)
	if v := m.sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > m.peak {
		m.peak = v.Uint64()
	}
}

func (m *meter) stop() resources {
	cpu := processCPU() - m.cpu0
	m.sampleHeap()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return resources{
		cpu:        cpu,
		peakLive:   m.peak,
		mallocs:    mem.Mallocs - m.mem0.Mallocs,
		allocBytes: mem.TotalAlloc - m.mem0.TotalAlloc,
		gcCycles:   mem.NumGC - m.mem0.NumGC,
		gcPause:    time.Duration(mem.PauseTotalNs - m.mem0.PauseTotalNs),
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// finalState is what the correctness gate checks of one pass: the state a
// query sees after the last batch, and the order the reader saw epochs in.
type finalState struct {
	values   []float64 // the final snapshot's property vector
	engine   []float64 // the pipeline's own property vector
	numEdges int
	edges    []edgeAnswer
	pinned   []int // batch index of every reader session, in order
}

// edgeAnswer is one HasEdge query against the final snapshot.
type edgeAnswer struct {
	src, dst graph.NodeID
	weight   graph.Weight
	ok       bool
}

// edgeSamples is how many HasEdge answers the gate checks per pass.
const edgeSamples = 512

// samplePairs picks the HasEdge queries of the gate from the stream's
// digest: half are edges the stream inserted (some since deleted), half
// are random vertex pairs.
func samplePairs(st stream, numNodes int) [][2]graph.NodeID {
	rng := rand.New(rand.NewSource(int64(st.digest)))
	pairs := make([][2]graph.NodeID, 0, edgeSamples)
	for len(pairs) < edgeSamples/2 {
		b := st.batches[rng.Intn(len(st.batches))].Adds
		e := b[rng.Intn(len(b))]
		pairs = append(pairs, [2]graph.NodeID{e.Src, e.Dst})
	}
	for len(pairs) < edgeSamples {
		pairs = append(pairs, [2]graph.NodeID{graph.NodeID(rng.Intn(numNodes)), graph.NodeID(rng.Intn(numNodes))})
	}
	return pairs
}

// captureFinal pins the latest epoch and records what the gate checks.
func captureFinal(acquire func() (*core.QueryHandle, error), engine []float64, st stream) (finalState, error) {
	h, err := acquire()
	if err != nil {
		return finalState{}, fmt.Errorf("pin final epoch: %w", err)
	}
	defer h.Release()
	f := finalState{
		values:   append([]float64(nil), h.Values()...),
		engine:   append([]float64(nil), engine...),
		numEdges: h.NumEdges(),
	}
	for _, pq := range samplePairs(st, h.NumNodes()) {
		w, ok := h.HasEdge(pq[0], pq[1])
		f.edges = append(f.edges, edgeAnswer{src: pq[0], dst: pq[1], weight: w, ok: ok})
	}
	return f, nil
}
