package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain is the compare mode: it reads two sets of run results of one
// workload — the parent's and the change's, one result line per run, run i
// of each set forming pair i — and judges every metric of BENCHMARK.json
// by the alternated-pairs rule:
//
//   - gain: the change wins at least 9 of every 10 pairs (ties count for
//     neither side), the medians differ by more than the parent's
//     inter-quartile range, and the change fails no more operations;
//   - unresolved: the parent's own spread (IQR over median) is wider than
//     the metric's bound, and not every change run beats every parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - within bound: anything else.
//
// Per-layer metrics have no bound; they are reported with their medians
// and wins only. The exit status is 1 when any metric regresses or any run
// failed its output checks.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	workload := fs.String("workload", "", "workload label for the report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] [-workload NAME] parent.jsonl change.jsonl")
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	verdicts := compare(spec, parent, change)
	fmt.Fprintf(w, "workload %s: %d parent run(s), %d change run(s)\n", *workload, len(parent), len(change))
	fmt.Fprintf(w, "%-28s %-12s %14s %14s %14s %14s %7s  %s\n",
		"metric", "unit", "parent_q1", "parent_median", "parent_q3", "change_median", "wins", "verdict")
	status := 0
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-28s %-12s %14.6g %14.6g %14.6g %14.6g %3d/%-3d  %s\n",
			v.name, v.unit, v.parentQ[0], v.parentQ[1], v.parentQ[2], v.changeMedian, v.wins, v.pairs, v.verdict)
		if v.verdict == verdictRegression {
			status = 1
		}
	}
	for i, r := range append(append([]Result(nil), parent...), change...) {
		if !r.Correct {
			fmt.Fprintf(w, "run %d failed its output checks\n", i)
			status = 1
		}
	}
	return status
}

const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictAllBetter  = "better in every run (spread wider than bound)"
	verdictNoBound    = "no bound (per-layer)"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("decoding %s: %w", path, err)
	}
	return s, nil
}

// loadResults reads every line of path that holds a result object, so a
// file of whole run outputs works as well as one of result lines.
func loadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r Result
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return out, nil
}

type verdict struct {
	name, unit   string
	parentQ      [3]float64
	changeMedian float64
	wins, pairs  int
	verdict      string
}

// compare judges every metric both sets report.
func compare(spec benchSpec, parent, change []Result) []verdict {
	var failedP, failedC int64
	for _, r := range parent {
		failedP += r.Failed
	}
	for _, r := range change {
		failedC += r.Failed
	}
	var out []verdict
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		p, c := values(parent, m.Name), values(change, m.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		out = append(out, judge(m, p, c, failedC <= failedP))
	}
	return out
}

func values(rs []Result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies the alternated-pairs rule to one metric. sign turns
// "better" into "larger": +1 when higher is better, -1 when lower is.
func judge(m metricSpec, p, c []float64, failsNoMore bool) verdict {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	v := verdict{name: m.Name, unit: m.Unit, parentQ: quartiles(p), changeMedian: quartiles(c)[1]}
	v.pairs = len(p)
	if len(c) < v.pairs {
		v.pairs = len(c)
	}
	for i := 0; i < v.pairs; i++ {
		if sign*(c[i]-p[i]) > 0 {
			v.wins++
		}
	}
	if m.Bound == nil {
		v.verdict = verdictNoBound
		return v
	}
	med, iqr := v.parentQ[1], v.parentQ[2]-v.parentQ[0]
	gain := sign * (v.changeMedian - med)
	switch {
	case v.pairs >= 10 && v.wins*10 >= 9*v.pairs && gain > iqr && failsNoMore:
		v.verdict = verdictGain
	case med == 0 || iqr/math.Abs(med) > *m.Bound:
		if allBetter(p, c, sign) {
			v.verdict = verdictAllBetter
		} else {
			v.verdict = verdictUnresolved
		}
	case -gain/math.Abs(med) > *m.Bound:
		v.verdict = verdictRegression
	default:
		v.verdict = verdictWithin
	}
	return v
}

func allBetter(p, c []float64, sign float64) bool {
	worstC, bestP := math.Inf(1), math.Inf(-1)
	for _, x := range c {
		worstC = math.Min(worstC, sign*x)
	}
	for _, x := range p {
		bestP = math.Max(bestP, sign*x)
	}
	return worstC > bestP
}

// quartiles returns the first quartile, the median and the third quartile
// by the exclusive method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spreads are judged by.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
