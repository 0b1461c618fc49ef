// Command perfbench is the repository's end-to-end benchmark. It streams
// generated batches through the public core API — direct ProcessMixed
// calls in a closed loop, or a supervised durable pipeline fed open-loop
// — alongside one query reader, checks the final state against the
// map-backed oracle, and prints one JSON line of metrics.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span per layer boundary and reports the per-layer metrics.
// See README.md beside this file for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"sagabench/internal/stats"
)

// extraSetups is how many set-ups a run times beyond each pass's own, so
// setup_s is a median over several.
const extraSetups = 16

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "input generation seed")
	seconds := fl.Int("seconds", 20, "how long to measure")
	traced := fl.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	workDir := fl.String("workdir", ".bench_build/perfbench/work", "scratch directory for WAL files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadNamed(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *traced, err)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs whole stream passes for the given time and gates them.
func measure(w workload, seed int64, seconds time.Duration, traced bool, workDir string) (result, error) {
	st := makeStream(w, seed)
	fmt.Printf("perfbench workload=%s seed=%d trace=%v threads=%d\n", w.name, seed, traced, threads)
	fmt.Printf("stream: %d batches, %d edge ops, digest %016x\n", len(st.batches), st.ops, st.digest)

	// Half the extra set-ups run before the stream and half after, so
	// setup_s does not hang on the host's state at one moment.
	var setups []time.Duration
	setup := func(count int) error {
		for i := 0; i < count; i++ {
			var d time.Duration
			var err error
			if w.open {
				d, err = setupSupervised(w, workDir)
			} else {
				d, err = setupDirect(w)
			}
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		return nil
	}
	if err := setup(extraSetups / 2); err != nil {
		return result{}, err
	}

	var passes []*pass
	applied := st.batches
	start := time.Now()
	if w.open {
		n := min(len(st.batches), int(math.Ceil(w.rate*seconds.Seconds())))
		applied = st.batches[:n]
		fmt.Printf("wal: %s on %s\n", workDir, fsType(workDir))
		p, err := openPass(w, st, n, traced, seed, workDir)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
	} else {
		// Whole passes only, so every run weighs each stream position
		// equally: stop when the next pass would overrun the time.
		var last time.Duration
		for len(passes) == 0 || time.Since(start)+last <= seconds {
			t := time.Now()
			p, err := closedPass(w, st, traced, seed+int64(len(passes)))
			if err != nil {
				return result{}, err
			}
			passes = append(passes, p)
			last = time.Since(t)
		}
	}
	measured := time.Since(start)
	if err := setup(extraSetups - extraSetups/2); err != nil {
		return result{}, err
	}

	var states []finalState
	for _, p := range passes {
		setups = append(setups, p.setup)
		p.final.pinned = p.reader.batches
		states = append(states, p.final)
	}
	t := sum(passes)
	fmt.Printf("passes: %d whole streams in %.1f s; %d batches visible, %d failed; %d query sessions, %d missed; %d set-ups\n",
		len(passes), measured.Seconds(), t.batches, t.failed, t.queries, t.misses, len(setups))
	if len(t.visible) < 200 {
		fmt.Printf("warning: %d batch samples leave fewer than 10 beyond p95\n", len(t.visible))
	}
	for _, p := range passes {
		if ol := p.open; ol != nil {
			verdict := "within capacity"
			if ol.overCapacity {
				verdict = "OVER CAPACITY: backlog grew over the stream"
			}
			fmt.Printf("load: offered %.2f batches/s, achieved %.2f, generator lag p95 %.3f ms, backlog at end %d: %s\n",
				ol.offered, ol.achieved, stats.Percentile(ol.lagMS, 95), ol.backlog[len(ol.backlog)-1], verdict)
		}
	}
	res := result{
		Attempted: t.batches + t.failed + t.queries,
		Failed:    t.failed + t.misses,
	}
	if err := gate(w, applied, states); err != nil {
		fmt.Printf("gate: FAIL: %v\n", err)
	} else {
		res.Correct = true
		fmt.Printf("gate: ok (%d final states vs oracle: values, edge count, %d HasEdge answers, reader pin order)\n", len(states), edgeSamples)
	}
	if traced {
		res.Metrics = perLayer(passes)
		printShares(res.Metrics)
	} else {
		res.Metrics = endToEnd(passes, setups)
	}
	return res, nil
}

// printShares prints where batch time went in a traced run.
func printShares(m map[string]metric) {
	fmt.Printf("shares of batch time: ds.update %.3f, view.refresh %.3f, compute %.3f, epoch.publish %.3f, core.other %.3f; boundary skew max %.1f us\n",
		m["ds.update_share"].Value, m["view.share"].Value, m["compute.share"].Value,
		m["epoch.publish_share"].Value, m["core.other_share"].Value, m["layers.skew_us_max"].Value)
}

// fsType names the filesystem dir sits on: WAL fsync cost belongs to it.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse", 0x01021997: "9p",
	}
	if n, ok := names[int64(s.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem type 0x%x", s.Type)
}
