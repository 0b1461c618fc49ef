package main

import (
	"errors"
	"math/rand"
	"time"

	"sagabench/internal/core"
	"sagabench/internal/graph"
)

// readerPeriod is the query reader's fixed schedule: one session every
// readerPeriod, whatever the writer is doing.
const readerPeriod = 2 * time.Millisecond

// sessionVertices is how many vertices one query session reads; each
// gets a Value, an OutDegree, an Out scan and a HasEdge.
const sessionVertices = 8

// querySide is what the reader needs from a pipeline or a supervisor.
type querySide struct {
	acquire func() (*core.QueryHandle, error)
	// published reports whether any epoch has been published, so a miss
	// before the first publish is not counted as a failure.
	published func() bool
	// pins reads the epoch manager's outstanding pin count.
	pins func() int64
}

func pipelineQueries(p *core.Pipeline) querySide {
	return querySide{
		acquire:   p.AcquireQuery,
		published: func() bool { return p.Epochs().LatestEpoch() > 0 },
		pins:      func() int64 { return p.Epochs().Stats().Pins },
	}
}

func supervisorQueries(s *core.Supervisor) querySide {
	return querySide{
		acquire:   s.AcquireQuery,
		published: func() bool { return s.Pipeline().Epochs().LatestEpoch() > 0 },
		pins:      func() int64 { return s.Pipeline().Epochs().Stats().Pins },
	}
}

// readerStats is what one reader saw. The reader goroutine owns it until
// stop returns.
type readerStats struct {
	sessionUS []float64 // AcquireQuery through Release
	pinUS     []float64 // AcquireQuery alone
	staleness []float64 // batches published while the session held its pin
	attempted int       // acquisitions after the first publish
	misses    int       // of those, acquisitions that failed
	batches   []int     // pinned batch index of every session, in order
	pinsMax   int64
	sink      uint64 // folds every read so none is optimized away
}

// reader runs query sessions on a fixed schedule until stopped.
type reader struct {
	q    querySide
	rng  *rand.Rand
	st   readerStats
	quit chan struct{}
	done chan struct{}
}

// startReader launches the one query goroutine of a pass; stop ends it.
func startReader(q querySide, seed int64) *reader {
	r := &reader{q: q, rng: rand.New(rand.NewSource(seed)), quit: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

// stop ends the reader and waits for its goroutine to exit.
func (r *reader) stop() readerStats {
	close(r.quit)
	<-r.done
	return r.st
}

func (r *reader) loop() {
	defer close(r.done)
	tick := time.NewTicker(readerPeriod)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
		}
		r.session()
	}
}

// session pins the latest epoch, reads a fixed mix of values and
// topology, and releases.
func (r *reader) session() {
	t0 := time.Now()
	h, err := r.q.acquire()
	t1 := time.Now()
	if err != nil {
		if errors.Is(err, core.ErrNoEpoch) && !r.q.published() {
			return
		}
		r.st.attempted++
		r.st.misses++
		return
	}
	r.st.attempted++
	n := h.NumNodes()
	var sink uint64
	for i := 0; i < sessionVertices && n > 0; i++ {
		v := graph.NodeID(r.rng.Intn(n))
		val, _ := h.Value(v)
		sink += uint64(val*1e9) + uint64(h.OutDegree(v))
		dst := graph.NodeID(r.rng.Intn(n))
		for _, nb := range h.Out(v) {
			sink += uint64(nb.ID)
			dst = nb.ID
		}
		if w, ok := h.HasEdge(v, dst); ok {
			sink += uint64(w)
		}
	}
	batch, stale := h.Batch(), h.Staleness()
	pins := r.q.pins()
	h.Release()
	t2 := time.Now()
	r.st.sink += sink
	r.st.sessionUS = append(r.st.sessionUS, us(t2.Sub(t0)))
	r.st.pinUS = append(r.st.pinUS, us(t1.Sub(t0)))
	r.st.staleness = append(r.st.staleness, float64(stale))
	r.st.batches = append(r.st.batches, batch)
	if pins > r.st.pinsMax {
		r.st.pinsMax = pins
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
