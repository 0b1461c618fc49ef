package crosscheck

import (
	"os"
	"strings"
	"testing"

	"sagabench/internal/ds"
	_ "sagabench/internal/ds/all"
	"sagabench/internal/graph"
)

// TestReadDuringClean runs the differential on a healthy pipeline across
// both publication paths and both stream flavors: every mid-stream
// observation must be re-answerable from ground truth.
func TestReadDuringClean(t *testing.T) {
	for _, tc := range []struct {
		name    string
		view    bool
		deletes bool
	}{
		{"export/adds-only", false, false},
		{"export/deletes", false, true},
		{"view/adds-only", true, false},
		{"view/deletes", true, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rep, err := ReadDuring(ReadDuringConfig{
				Stream: StreamConfig{
					Seed:      31 + int64(len(tc.name)),
					Batches:   10,
					BatchSize: 200,
					NumNodes:  64,
					Directed:  true,
					Deletes:   tc.deletes,
				},
				DS:              "adjshared",
				Readers:         4,
				MaxObsPerReader: 64,
				ComputeView:     tc.view,
				Threads:         2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				for _, m := range rep.Mismatches {
					t.Errorf("mismatch: %s (deterministic=%v)", m, m.Deterministic)
				}
				t.Fatalf("read-during-update differential failed (panic: %q)", rep.ReaderPanic)
			}
			if rep.Batches != 10 {
				t.Fatalf("report covers %d batches, want 10", rep.Batches)
			}
			if rep.Observations == 0 {
				t.Fatal("readers recorded no observations — the differential was vacuous")
			}
			if rep.Checked == 0 || rep.Checked > rep.Observations {
				t.Fatalf("checked %d of %d observations", rep.Checked, rep.Observations)
			}
		})
	}
}

// truncatingGraph drops every edge that mentions the top vertex of the ID
// space, so the structure under test silently under-ingests: ground truth
// (built from the raw stream) sees a vertex the published epochs never
// acquire. Deterministic by construction — the minimizer must be able to
// shrink the failure.
type truncatingGraph struct {
	ds.Graph
	cut graph.NodeID
}

func (f *truncatingGraph) Update(b graph.Batch) {
	kept := make(graph.Batch, 0, len(b))
	for _, e := range b {
		if e.Src == f.cut || e.Dst == f.cut {
			continue
		}
		kept = append(kept, e)
	}
	f.Graph.Update(kept)
}

// TestReadDuringDetectsFault injects the truncating structure and demands
// the differential catch it, classify it as deterministic, and write a
// minimized reproducer.
func TestReadDuringDetectsFault(t *testing.T) {
	outDir := t.TempDir()
	const numNodes = 48
	cfg := ReadDuringConfig{
		Stream: StreamConfig{
			Seed:      7,
			Batches:   8,
			BatchSize: 150,
			NumNodes:  numNodes,
			Directed:  true,
		},
		DS:              "adjshared",
		Readers:         4,
		MaxObsPerReader: 64,
		Threads:         2,
		OutDir:          outDir,
		MakeStructure: func(name string) ds.Graph {
			return &truncatingGraph{
				Graph: ds.MustNew(name, ds.Config{Directed: true, Threads: 2}),
				cut:   numNodes - 1,
			}
		},
	}
	rep, err := ReadDuring(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BatchesObserved <= 1 {
		t.Fatalf("readers observed %d distinct batches of %d — the differential never looked past one epoch",
			rep.BatchesObserved, rep.Batches)
	}
	if rep.OK() {
		t.Fatal("differential passed a structure that drops edges")
	}
	if len(rep.Mismatches) > maxMismatches {
		t.Fatalf("%d mismatches exceed the per-run cap of %d", len(rep.Mismatches), maxMismatches)
	}
	seen := map[[2]int]bool{}
	prev := ReadMismatch{Batch: -1}
	repros := 0
	for i, m := range rep.Mismatches {
		key := [2]int{m.Batch, int(m.Vertex)}
		if seen[key] {
			t.Fatalf("duplicate mismatch for batch %d vertex %d", m.Batch, m.Vertex)
		}
		seen[key] = true
		if m.Batch < prev.Batch || (m.Batch == prev.Batch && m.Vertex < prev.Vertex) {
			t.Fatalf("mismatches not sorted: %v after %v", m, prev)
		}
		prev = m
		if !m.Deterministic {
			t.Errorf("structural fault classified as nondeterministic: %s", m)
		}
		if m.ReproFile == "" {
			if i < maxRepros {
				t.Errorf("no reproducer written for mismatch %d: %s", i, m)
			}
			continue
		}
		repros++
		f, err := os.Open(m.ReproFile)
		if err != nil {
			t.Fatalf("reading reproducer: %v", err)
		}
		r, err := ParseRepro(f)
		f.Close()
		if err != nil {
			t.Fatalf("reproducer %s does not parse: %v", m.ReproFile, err)
		}
		if !strings.Contains(r.Note, "read-during-update") {
			t.Fatalf("reproducer note %q lacks provenance", r.Note)
		}
		if len(r.Stream) == 0 || len(r.Stream) > 8 {
			t.Fatalf("minimized stream has %d batches (original 8)", len(r.Stream))
		}
	}
	if repros == 0 {
		t.Fatal("no reproducer file written at all")
	}
}

// TestReadDuringConfigErrors covers construction failures.
func TestReadDuringConfigErrors(t *testing.T) {
	if _, err := ReadDuring(ReadDuringConfig{DS: "no-such-structure"}); err == nil {
		t.Fatal("unknown structure accepted")
	}
	if _, err := ReadDuring(ReadDuringConfig{DS: "adjshared", Alg: "no-such-alg"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
