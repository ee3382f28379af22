package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinyParams shrinks a workload so a run takes about a second. At 500
// dests (the generator's default) every unit still holds the gadgets the
// output checks need.
func tinyParams(t *testing.T, workload string, trace bool) params {
	t.Helper()
	p, err := defaultParams(workload, DefaultSeed, 0, trace)
	if err != nil {
		t.Fatal(err)
	}
	p.dests, p.rounds, p.minRounds, p.minUnits = 500, 4, 1, 2
	p.dir = t.TempDir()
	return p
}

// TestTinyRunEmitsEveryMetric runs every workload the benchmark knows,
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json lists, with their units, and passes its output checks.
// Every workload BENCHMARK.json gates must be one of them.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not one the benchmark runs (%v)", w.Name, workloadNames)
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(tinyParams(t, w, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTamperedCaptureFailsCheck flips one byte of one captured response
// and expects the live-capture-replay check to fail the run.
func TestTamperedCaptureFailsCheck(t *testing.T) {
	p := tinyParams(t, "live-capture-replay", false)
	p.minUnits = 1
	p.tamper = flipLastResponseByte
	var out bytes.Buffer
	res, err := run(p, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || !strings.Contains(out.String(), "CHECK FAILED: replay") {
		t.Fatalf("tampered capture passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
}

// flipLastResponseByte flips the lowest bit of the quoted probe's
// destination address in the capture's last ICMP error record, in place in
// the classic pcap file: the response then quotes a probe nobody sent.
func flipLastResponseByte(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	const global, recHdr, quotedDst = 24, 16, 20 + 8 + 16
	flip := -1
	for off := global; off+recHdr <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[off+8:]))
		data := b[off+recHdr : off+recHdr+n]
		if n > quotedDst+4 && data[9] == 1 && (data[20] == 11 || data[20] == 3) {
			flip = off + recHdr + quotedDst + 3
		}
		off += recHdr + n
	}
	if flip < 0 {
		return fmt.Errorf("%s holds no ICMP error", path)
	}
	b[flip] ^= 1
	return os.WriteFile(path, b, 0o644)
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	higher := metricSpec{Name: "pairs_per_s", Unit: "pairs/s", Better: "higher", Bound: &bound}
	lower := metricSpec{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: &bound}
	around := func(c float64, spread float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, c+spread*float64(i%5-2))
		}
		return xs
	}
	for _, tc := range []struct {
		name  string
		m     metricSpec
		p, c  []float64
		fails bool
		want  string
	}{
		{"gain", higher, around(100, 1), around(120, 1), true, verdictGain},
		{"gain needs no more failures", higher, around(100, 1), around(120, 1), false, verdictWithin},
		{"lower is better", lower, around(100, 1), around(80, 1), true, verdictGain},
		{"regression", higher, around(100, 1), around(80, 1), true, verdictRegression},
		{"within bound", higher, around(100, 1), around(97, 1), true, verdictWithin},
		{"unresolved", higher, around(100, 20), around(90, 20), true, verdictUnresolved},
		// Every change run beats every parent run, but by less than the
		// parent's IQR: not a gain, yet not unresolved either.
		{"better in every run", higher, around(100, 20), around(141, 0), true, verdictAllBetter},
		{"no bound", metricSpec{Name: "netsim.probes", Better: "lower"}, around(100, 1), around(50, 1), true, verdictNoBound},
	} {
		if got := judge(tc.m, tc.p, tc.c, tc.fails).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
