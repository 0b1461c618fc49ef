package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: sagabench
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkComputePRFSonAS-4     	      20	    480000 ns/op	    9432 B/op	     122 allocs/op
BenchmarkComputePRINConAS-4    	      20	     85000 ns/op	    7096 B/op	      45 allocs/op
BenchmarkNewOne-4              	      10	      1234 ns/op
PASS
ok  	sagabench	1.234s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	pr := got["BenchmarkComputePRFSonAS"]
	if pr.NsPerOp != 480000 || pr.AllocsOp != 122 || pr.BPerOp != 9432 || pr.Iters != 20 {
		t.Fatalf("BenchmarkComputePRFSonAS parsed as %+v", pr)
	}
	if n := got["BenchmarkNewOne"]; n.NsPerOp != 1234 || n.AllocsOp != 0 {
		t.Fatalf("no-benchmem line parsed as %+v", n)
	}
}

func TestParseBenchOutputKeepsMinimum(t *testing.T) {
	doubled := sampleOutput + "BenchmarkComputePRFSonAS-4 20 400000 ns/op 9432 B/op 122 allocs/op\n"
	got, err := parseBenchOutput(strings.NewReader(doubled))
	if err != nil {
		t.Fatal(err)
	}
	if ns := got["BenchmarkComputePRFSonAS"].NsPerOp; ns != 400000 {
		t.Fatalf("repeated benchmark kept %v ns/op, want the 400000 minimum", ns)
	}
}

func TestGate(t *testing.T) {
	base := []BaselineEntry{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: 100},
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 1, AllocsOp: 1},
	}
	fresh := map[string]BaselineEntry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 1050, AllocsOp: 105}, // within 10%
		"BenchmarkB": {Name: "BenchmarkB", NsPerOp: 1500, AllocsOp: 130}, // both regressed
	}

	failures, warnings, missing := gate(base, fresh, 10, false)
	if len(warnings) != 0 {
		t.Fatalf("warnings %v, want none in strict mode", warnings)
	}
	if len(failures) != 2 {
		t.Fatalf("failures %v, want ns/op and allocs/op for BenchmarkB", failures)
	}
	for _, f := range failures {
		if f.name != "BenchmarkB" {
			t.Fatalf("unexpected failure %+v", f)
		}
	}
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Fatalf("missing %v, want [BenchmarkGone]", missing)
	}

	// Advisory time: the ns/op regression downgrades, allocs still fails.
	failures, warnings, _ = gate(base, fresh, 10, true)
	if len(failures) != 1 || failures[0].metric != "allocs/op" {
		t.Fatalf("advisory failures %v, want only allocs/op", failures)
	}
	if len(warnings) != 1 || warnings[0].metric != "ns/op" {
		t.Fatalf("advisory warnings %v, want only ns/op", warnings)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	base := []BaselineEntry{{Name: "BenchmarkA", NsPerOp: 1000, AllocsOp: 100}}
	fresh := map[string]BaselineEntry{
		"BenchmarkA": {Name: "BenchmarkA", NsPerOp: 500, AllocsOp: 50},
	}
	failures, warnings, _ := gate(base, fresh, 10, false)
	if len(failures) != 0 || len(warnings) != 0 {
		t.Fatalf("improvement flagged: failures=%v warnings=%v", failures, warnings)
	}
}

func TestLoadBaselinesMerges(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", `{"command":"regen-a","benchmarks":[{"name":"BenchmarkA","ns_per_op":1}]}`)
	b := write("b.json", `{"command":"regen-b","benchmarks":[{"name":"BenchmarkB","ns_per_op":2}]}`)
	bases, entries, err := loadBaselines(a + "," + b)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 2 || len(entries) != 2 {
		t.Fatalf("bases=%d entries=%d, want 2 and 2", len(bases), len(entries))
	}
	if bases[0].Command != "regen-a" || bases[1].Command != "regen-b" {
		t.Fatalf("commands %q, %q", bases[0].Command, bases[1].Command)
	}
	if entries[0].Name != "BenchmarkA" || entries[1].Name != "BenchmarkB" {
		t.Fatalf("entries %+v", entries)
	}

	dup := write("dup.json", `{"command":"regen-dup","benchmarks":[{"name":"BenchmarkA","ns_per_op":3}]}`)
	if _, _, err := loadBaselines(a + "," + dup); err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("duplicate across files not rejected: %v", err)
	}
	if _, _, err := loadBaselines(""); err == nil {
		t.Fatal("empty baseline list not rejected")
	}
}

func TestCheckToolchain(t *testing.T) {
	bases := []Baseline{
		{Go: "go1.24.0", path: "a.json"},
		{Go: "go1.22.5", path: "b.json", Command: "regen-b"},
	}
	if err := checkToolchain(bases[:1], "go1.24.0"); err != nil {
		t.Fatalf("matching toolchain rejected: %v", err)
	}
	err := checkToolchain(bases, "go1.24.0")
	if err == nil {
		t.Fatal("baseline from another Go version accepted")
	}
	for _, want := range []string{"b.json", "go1.22.5", "go1.24.0", "regen-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not name %q", err, want)
		}
	}
	if err := checkToolchain([]Baseline{{path: "c.json"}}, "go1.24.0"); err == nil {
		t.Fatal("baseline with no recorded toolchain accepted")
	}

	// The checked-in baselines carry their toolchain through loadBaselines.
	loaded, _, err := loadBaselines("../../BENCH_compute.json,../../BENCH_update.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range loaded {
		if b.Go == "" {
			t.Errorf("%s records no toolchain", b.path)
		}
	}
}

func TestDeltaPct(t *testing.T) {
	if p := deltaPct(100, 110); p != 10 {
		t.Fatalf("deltaPct(100,110)=%v", p)
	}
	if p := deltaPct(0, 0); p != 0 {
		t.Fatalf("deltaPct(0,0)=%v", p)
	}
	if p := deltaPct(0, 5); p != 100 {
		t.Fatalf("deltaPct(0,5)=%v, want 100 (regression from zero)", p)
	}
}
