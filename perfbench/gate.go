package main

import (
	"fmt"
	"sort"

	"sagabench/internal/compute"
	"sagabench/internal/core"
	"sagabench/internal/graph"
)

// gate replays the applied batches into the map-backed oracle and checks
// every pass's final state against it. Any mismatch fails the run.
func gate(w workload, applied []core.MixedBatch, states []finalState) error {
	o := graph.NewOracle(w.spec.Directed)
	for _, mb := range applied {
		o.Update(mb.Adds)
		o.Delete(mb.Dels)
	}
	ref, err := compute.Reference(w.pipeline.Algorithm, o, w.pipeline.Compute)
	if err != nil {
		return err
	}
	tol := compute.Tolerance(w.pipeline.Algorithm)
	for i, f := range states {
		if err := checkFinal(f, o, ref, tol); err != nil {
			return fmt.Errorf("pass %d: %w", i+1, err)
		}
	}
	return nil
}

// checkFinal compares one pass's final state with the oracle and the
// reference values computed on it.
func checkFinal(f finalState, o *graph.Oracle, ref []float64, tol float64) error {
	for _, vs := range []struct {
		what string
		got  []float64
	}{{"snapshot", f.values}, {"engine", f.engine}} {
		if v := compute.DiffValues(vs.got, ref, tol); v >= 0 {
			if v >= len(vs.got) || v >= len(ref) {
				return fmt.Errorf("%s has %d values, reference %d", vs.what, len(vs.got), len(ref))
			}
			return fmt.Errorf("%s value of vertex %d is %v, reference %v (tolerance %g)", vs.what, v, vs.got[v], ref[v], tol)
		}
	}
	if want := o.NumEdges(); f.numEdges != want {
		return fmt.Errorf("final snapshot has %d edges, oracle %d", f.numEdges, want)
	}
	answers := append([]edgeAnswer(nil), f.edges...)
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].src < answers[j].src })
	var out []graph.Neighbor
	for i, a := range answers {
		if i == 0 || a.src != answers[i-1].src {
			out = o.Out(a.src)
		}
		j := sort.Search(len(out), func(j int) bool { return out[j].ID >= a.dst })
		ok := j < len(out) && out[j].ID == a.dst
		if ok != a.ok || (ok && out[j].Weight != a.weight) {
			return fmt.Errorf("HasEdge(%d, %d) = (%v, %v) on the final snapshot, oracle has edge %v", a.src, a.dst, a.weight, a.ok, ok)
		}
	}
	for i := 1; i < len(f.pinned); i++ {
		if f.pinned[i] < f.pinned[i-1] {
			return fmt.Errorf("reader session %d pinned batch %d after batch %d", i, f.pinned[i], f.pinned[i-1])
		}
	}
	return nil
}
