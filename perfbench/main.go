// Command perfbench is the repository's benchmark: it drives the paper's
// paired classic/Paris measurement through the public packages and prints,
// as its last line, one JSON result object.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload daemon-churn --seed 42 --seconds 55 --trace 0
//	bash perfbench/run.sh --selfcheck [--seconds N]
//	bash perfbench/run.sh compare --bench BENCHMARK.json --workload daemon-churn parent.jsonl change.jsonl
//
// Workloads (see PLAN.md for why each exists and what each metric should
// move):
//
//   - daemon-churn: measured's Tick loop with virtual-clock dynamics and a
//     checkpoint every fifth tick, 1,000 dests.
//   - live-capture-replay: the -live -capture path over an in-process
//     SimConn, followed by an offline replay of the capture.
//   - study: anomaly-study's default simulator campaign, 2,000 dests. It
//     runs under --selfcheck and by name, but BENCHMARK.json does not
//     gate it: the other two already exercise every layer it does.
//
// A run repeats fixed-size units of its workload, each with a fresh set-up
// from a seed derived from --seed and the unit's index, until --seconds
// have elapsed and at least 100 rounds or ticks were timed after a first,
// warm-up unit. With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 units alternate untraced and traced, and the
// result carries the per-layer metrics measured at the seams the benchmark
// owns (the transport handed to the campaign or daemon, RoundStart, the
// SimConn responder, the capture sink) plus the tracing overhead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// DefaultSeed is the workload seed runs use when --seed is not given;
// HeldOutSeed is the second seed the self-check runs, one no tuning used.
const (
	DefaultSeed = 42
	HeldOutSeed = 7919
)

var workloadNames = []string{"daemon-churn", "live-capture-replay", "study"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	workload := flag.String("workload", "daemon-churn", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", DefaultSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 55, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end metrics")
	workDir := flag.String("workdir", ".bench_build/work", "directory for checkpoints and captures (created, cleaned up)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload, untraced and traced, on the default and the held-out seed")
	flag.Parse()

	// Load comes from this one process: campaign and daemon workers equal
	// the CPU count, and so does GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *selfcheck {
		os.Exit(selfCheck(*seconds, *workDir))
	}
	p, err := defaultParams(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p.dir = dir
	res, err := run(p, os.Stdout)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selfCheck runs every workload, untraced and traced, on the default and
// the held-out seed, each in a child process of its own so peak RSS stays
// per run. It prints each child's summary and fails when any output check
// fails or any child errors.
func selfCheck(seconds float64, workDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bad := 0
	for _, seed := range []int64{DefaultSeed, HeldOutSeed} {
		for _, w := range workloadNames {
			for _, trace := range []string{"0", "1"} {
				var out bytes.Buffer
				cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", trace, "--workdir", workDir)
				cmd.Stdout = io.MultiWriter(&out, os.Stdout)
				cmd.Stderr = os.Stderr
				fmt.Printf("== %s seed=%d trace=%s\n", w, seed, trace)
				if err := cmd.Run(); err != nil {
					fmt.Printf("FAIL %s seed=%d trace=%s: %v\n", w, seed, trace, err)
					bad++
					continue
				}
				res, err := lastResult(out.Bytes())
				if err != nil || !res.Correct || res.Failed != 0 {
					fmt.Printf("FAIL %s seed=%d trace=%s: output checks failed\n", w, seed, trace)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d run(s) failed\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every output check passed on both seeds")
	return 0
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (Result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var r Result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("parsing result line: %w", err)
	}
	return r, nil
}
