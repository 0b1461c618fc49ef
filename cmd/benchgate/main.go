// Command benchgate compares a fresh `go test -bench` run against the
// checked-in baselines (BENCH_compute.json, BENCH_update.json) and fails
// on regressions. -baseline takes a comma-separated list; the files are
// merged (duplicate benchmark names across files are an error) so one run
// covering both suites gates against both.
//
// Typical use, locally before landing a compute/view or data-structure
// change:
//
//	go test -run=NONE -bench='ViewO|ComputePR|ComputeCC|ComputeBFS|UpdateRate' -benchtime=20x . | \
//	    go run ./cmd/benchgate -baseline BENCH_compute.json,BENCH_update.json
//
// and in CI (shared runners are too noisy to gate on wall time, so only
// the deterministic allocation counts are enforced there):
//
//	go test -run=NONE -bench='Compute|View|UpdateRate' -benchtime=1x . | \
//	    go run ./cmd/benchgate -baseline BENCH_compute.json,BENCH_update.json -time-advisory
//
// The gate fails (exit 1) when a benchmark regresses by more than
// -threshold percent on ns/op or allocs/op. Allocation counts are
// deterministic per Go version, so they are gated even with -benchtime=1x;
// -time-advisory downgrades ns/op regressions to warnings for noisy
// environments. For the same reason the gate refuses to run when a
// baseline's "go" field differs from the toolchain running it: a
// cross-version comparison gates nothing. Benchmarks present in only one
// of the two sets are reported but never fail the gate, so the baseline
// does not have to enumerate every benchmark in the repo.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BaselineEntry mirrors one element of BENCH_compute.json's "benchmarks".
type BaselineEntry struct {
	Name     string  `json:"name"`
	Iters    int     `json:"iterations"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"bytes_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

// Baseline mirrors one baseline file (BENCH_compute.json, BENCH_update.json).
type Baseline struct {
	Description string          `json:"description"`
	Command     string          `json:"command"`
	Go          string          `json:"go"`
	Benchmarks  []BaselineEntry `json:"benchmarks"`

	path string // file the baseline was read from
}

// loadBaselines reads and merges the comma-separated baseline files. A
// benchmark name appearing in two files is an error — the gate could not
// tell which regeneration command to point at.
func loadBaselines(paths string) ([]Baseline, []BaselineEntry, error) {
	var bases []Baseline
	var merged []BaselineEntry
	seen := make(map[string]string)
	for _, p := range strings.Split(paths, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		b := Baseline{path: p}
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", p, err)
		}
		for _, e := range b.Benchmarks {
			if prev, dup := seen[e.Name]; dup {
				return nil, nil, fmt.Errorf("benchmark %q in both %s and %s", e.Name, prev, p)
			}
			seen[e.Name] = p
			merged = append(merged, e)
		}
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		return nil, nil, fmt.Errorf("no baseline files in %q", paths)
	}
	return bases, merged, nil
}

// checkToolchain fails when a baseline was recorded on a Go version other
// than the running one, naming both: allocation counts are deterministic
// only per Go version, which is the gate's premise.
func checkToolchain(bases []Baseline, version string) error {
	for _, b := range bases {
		if b.Go != version {
			return fmt.Errorf("%s was recorded with Go %q but the gate runs %s; run it on %q or regenerate the baseline with: %s",
				b.path, b.Go, version, b.Go, b.Command)
		}
	}
	return nil
}

// benchLine matches the result line `go test -bench` prints:
//
//	BenchmarkComputePRFSonAS-4   20   474370 ns/op   9432 B/op   122 allocs/op
//
// The B/op and allocs/op columns appear only under -benchmem; ns/op may be
// printed with a fractional part.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBenchOutput extracts results from `go test -bench` text, keyed by
// benchmark name with the -GOMAXPROCS suffix stripped. A benchmark that
// appears multiple times (e.g. -count>1) keeps its best (minimum) ns/op,
// matching how benchstat-style tooling discards warm-up noise.
func parseBenchOutput(r io.Reader) (map[string]BaselineEntry, error) {
	out := make(map[string]BaselineEntry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256<<10), 256<<10)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		e := BaselineEntry{Name: m[1]}
		e.Iters, _ = strconv.Atoi(m[2])
		e.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			e.BPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			e.AllocsOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if prev, ok := out[e.Name]; !ok || e.NsPerOp < prev.NsPerOp {
			out[e.Name] = e
		}
	}
	return out, sc.Err()
}

// deltaPct returns the relative change in percent, positive = regression.
func deltaPct(base, fresh float64) float64 {
	if base == 0 {
		if fresh == 0 {
			return 0
		}
		return 100
	}
	return (fresh - base) / base * 100
}

// verdict classifies one metric of one benchmark.
type verdict struct {
	name   string
	metric string
	base   float64
	fresh  float64
	pct    float64
	fail   bool
}

// gate compares fresh results against the baseline and returns every
// exceeded threshold. With timeAdvisory, ns/op regressions are reported
// but do not fail.
func gate(base []BaselineEntry, fresh map[string]BaselineEntry, threshold float64, timeAdvisory bool) (failures, warnings []verdict, missing []string) {
	for _, b := range base {
		f, ok := fresh[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		checks := []struct {
			metric      string
			base, fresh float64
			advisory    bool
		}{
			{"ns/op", b.NsPerOp, f.NsPerOp, timeAdvisory},
			{"allocs/op", b.AllocsOp, f.AllocsOp, false},
		}
		for _, c := range checks {
			pct := deltaPct(c.base, c.fresh)
			if pct <= threshold {
				continue
			}
			v := verdict{name: b.Name, metric: c.metric, base: c.base, fresh: c.fresh, pct: pct, fail: !c.advisory}
			if v.fail {
				failures = append(failures, v)
			} else {
				warnings = append(warnings, v)
			}
		}
	}
	return failures, warnings, missing
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_compute.json", "checked-in baseline JSON (comma-separated list merges several)")
		inputPath    = flag.String("input", "-", "fresh `go test -bench` output ('-' reads stdin)")
		threshold    = flag.Float64("threshold", 10, "regression threshold in percent")
		timeAdvisory = flag.Bool("time-advisory", false, "report ns/op regressions as warnings instead of failures (for noisy shared runners; allocs/op stays gated)")
	)
	flag.Parse()

	bases, baseEntries, err := loadBaselines(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if err := checkToolchain(bases, runtime.Version()); err != nil {
		fatal(err)
	}

	in := io.Reader(os.Stdin)
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	fresh, err := parseBenchOutput(in)
	if err != nil {
		fatal(err)
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no benchmark result lines in input (expected `go test -bench` output)"))
	}

	failures, warnings, missing := gate(baseEntries, fresh, *threshold, *timeAdvisory)

	inBaseline := make(map[string]bool, len(baseEntries))
	for _, b := range baseEntries {
		inBaseline[b.Name] = true
	}
	var extra []string
	for name := range fresh {
		if !inBaseline[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)

	fmt.Printf("benchgate: %d baseline benchmarks, %d fresh results, threshold %.0f%%\n",
		len(baseEntries), len(fresh), *threshold)
	for _, v := range warnings {
		fmt.Printf("  WARN  %-32s %-10s %12.0f -> %12.0f  (%+.1f%%, advisory)\n",
			v.name, v.metric, v.base, v.fresh, v.pct)
	}
	for _, v := range failures {
		fmt.Printf("  FAIL  %-32s %-10s %12.0f -> %12.0f  (%+.1f%% > %.0f%%)\n",
			v.name, v.metric, v.base, v.fresh, v.pct, *threshold)
	}
	if len(missing) > 0 {
		fmt.Printf("  note: %d baseline benchmarks not in this run: %s\n",
			len(missing), strings.Join(missing, ", "))
	}
	if len(extra) > 0 {
		fmt.Printf("  note: %d benchmarks not in the baseline: %s\n",
			len(extra), strings.Join(extra, ", "))
	}
	if len(failures) > 0 {
		fmt.Printf("benchgate: FAIL (%d regressions; if the change is intentional, regenerate the affected baseline with:\n", len(failures))
		for _, b := range bases {
			fmt.Printf("  %s\n", b.Command)
		}
		fmt.Println(")")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
