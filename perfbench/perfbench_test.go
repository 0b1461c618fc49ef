package main

import (
	"strings"
	"testing"
)

// small shrinks a workload to a stream of a few thousand edges so a pass
// takes well under a second.
func small(t *testing.T, name string) (workload, stream) {
	t.Helper()
	w, err := workloadNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	w.spec.NumNodes /= 50
	w.spec.NumEdges /= 50
	w.batchSize = 200
	if w.open {
		w.rate = 200
	}
	return w, makeStream(w, 7)
}

func runPass(t *testing.T, w workload, st stream, traced bool) *pass {
	t.Helper()
	var p *pass
	var err error
	if w.open {
		p, err = openPass(w, st, len(st.batches), traced, 7, t.TempDir())
	} else {
		p, err = closedPass(w, st, traced, 7)
	}
	if err != nil {
		t.Fatal(err)
	}
	p.final.pinned = p.reader.batches
	return p
}

func TestStreamIsSeedDeterministic(t *testing.T) {
	w, a := small(t, "inc-pr-hub-mixed")
	if b := makeStream(w, 7); b.digest != a.digest || b.ops != a.ops {
		t.Fatalf("same seed gave digests %x and %x", a.digest, b.digest)
	}
	if c := makeStream(w, 8); c.digest == a.digest {
		t.Fatalf("seeds 7 and 8 gave the same digest %x", a.digest)
	}
	if len(a.batches[1].Dels) == 0 {
		t.Fatal("mixed workload generated no deletes")
	}
}

// TestGateRejectsPlantedDefects runs a real pass, shows the gate accepts
// it, then plants one wrong answer at a time and shows each is rejected.
func TestGateRejectsPlantedDefects(t *testing.T) {
	for _, name := range []string{"fs-pr-compute", "inc-pr-hub-mixed"} {
		w, st := small(t, name)
		p := runPass(t, w, st, false)
		if err := gate(w, st.batches, []finalState{p.final}); err != nil {
			t.Fatalf("%s: gate rejected a correct pass: %v", name, err)
		}
		plants := []struct {
			what  string
			plant func(f *finalState)
			want  string
		}{
			{"snapshot value", func(f *finalState) { f.values[3] += 1e-3 }, "snapshot value of vertex 3"},
			{"engine value", func(f *finalState) { f.engine[len(f.engine)-1] *= 2 }, "engine value"},
			{"edge count", func(f *finalState) { f.numEdges++ }, "edges, oracle"},
			{"HasEdge answer", func(f *finalState) { f.edges[0].ok = !f.edges[0].ok }, "HasEdge"},
			{"reader order", func(f *finalState) { f.pinned = append(f.pinned, 1, 0) }, "pinned batch"},
		}
		for _, pl := range plants {
			f := p.final
			f.values = append([]float64(nil), f.values...)
			f.engine = append([]float64(nil), f.engine...)
			f.edges = append([]edgeAnswer(nil), f.edges...)
			f.pinned = append([]int(nil), f.pinned...)
			pl.plant(&f)
			err := gate(w, st.batches, []finalState{p.final, f})
			if err == nil || !strings.Contains(err.Error(), pl.want) {
				t.Errorf("%s: planted %s: gate said %v, want an error naming %q", name, pl.what, err, pl.want)
			}
		}
	}
}

// TestTracedSpansReconcile checks, for every workload, that each batch's
// child self times and core.other add up to its span with the recorded
// boundaries in order. Run it under -race: on the supervised workload the
// probe's hooks fire on the supervisor's worker goroutine.
func TestTracedSpansReconcile(t *testing.T) {
	for _, wl := range workloads {
		w, st := small(t, wl.name)
		p := runPass(t, w, st, true)
		if err := gate(w, st.batches, []finalState{p.final}); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := p.trace
		if len(tr.batches) != len(st.batches) {
			t.Fatalf("%s: %d batch spans for %d batches", w.name, len(tr.batches), len(st.batches))
		}
		for i, b := range tr.batches {
			var sum int64
			for _, d := range b.self {
				sum += d
			}
			if sum != b.total || b.skew != 0 || b.self[lOther] < 0 {
				t.Fatalf("%s batch %d: children sum to %d of %d ns, skew %d, other %d",
					w.name, i, sum, b.total, b.skew, b.self[lOther])
			}
			if b.self[lCompute] <= 0 || b.self[lPublish] <= 0 {
				t.Fatalf("%s batch %d: compute %d ns, publish %d ns", w.name, i, b.self[lCompute], b.self[lPublish])
			}
		}
		m := perLayer([]*pass{p})
		for _, name := range []string{"compute.us_p50", "epoch.publish_us_p50", "ds.update_us_p50", "runtime.allocs_per_batch"} {
			if m[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m[name].Value)
			}
		}
		if w.open {
			for _, name := range []string{"wal.append_us_p50", "wal.bytes_per_batch", "checkpoint.bytes", "wal.fsync_count"} {
				if m[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m[name].Value)
				}
			}
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	steady := []int{1, 0, 1, 2, 1, 0, 1, 1}
	growing := []int{0, 1, 1, 2, 4, 6, 8, 10}
	if backlogGrew(steady) {
		t.Error("steady backlog reported as over capacity")
	}
	if !backlogGrew(growing) {
		t.Error("growing backlog not reported as over capacity")
	}
}
