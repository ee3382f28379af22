package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// params sizes one run. defaultParams gives the benchmark's sizes; tests
// shrink them.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for checkpoints and captures

	dests, rounds int // one unit: dests probed for rounds rounds (or ticks)
	minRounds     int // rounds or ticks a run must time (p90 needs 10+ beyond it)
	minUnits      int // units a run must time after its warm-up unit; setup_s is the median of all units' set-ups

	// tamper, when set, edits the live-capture-replay capture file after
	// it is installed and before it is read back.
	tamper func(path string) error

	unit     int   // index of the unit within the run; unit 0 warms up
	unitSeed int64 // the unit's seed, derived from seed and unit
}

func defaultParams(workload string, seed int64, seconds float64, trace bool) (params, error) {
	p := params{workload: workload, seed: seed, seconds: seconds, trace: trace,
		rounds: 25, minRounds: 100, minUnits: 3}
	switch workload {
	case "study":
		p.dests = 2000
	case "daemon-churn":
		p.dests = 1000
	case "live-capture-replay":
		// Small enough that 100 live rounds stay a few seconds and the
		// in-memory capture stays under 100 MB.
		p.dests = 400
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	return p, nil
}

// seam counts and times the calls crossing one layer boundary.
type seam struct {
	calls, probes, stars, busyNs atomic.Int64
}

func (s *seam) busy() time.Duration { return time.Duration(s.busyNs.Load()) }

// layers accumulates the per-layer measurements of a run's traced units.
type layers struct {
	pairs       int64
	workerTime  time.Duration // workers x probing wall time
	roundStart  time.Duration
	roundStarts int

	// tp is the transport the campaign or daemon was handed. net is the
	// simulator behind it and mux the shared demultiplexer: in
	// live-capture-replay tp is the mux and netsim answers inside the
	// SimConn responder; elsewhere tp is netsim and the mux is idle.
	tp, net, mux *seam

	allocs      uint64
	gcCPU, cpu  float64
	heapLiveMax float64

	ticks                    int64
	snapshotMs               []float64
	ckMB, ckSaveMs, ckLoadMs []float64

	sends        int64
	inflightPeak int
	rtoMeanMs    []float64

	records   int64
	capture   seam // the pcap sink
	installMs []float64
	fileMB    []float64
	readNs    time.Duration

	indexMs                   []float64
	replay                    seam
	exchanges, leftover, junk int64
	replayPairs               int64
	replayWall                time.Duration
}

// unitOut is what one unit of a workload measured.
type unitOut struct {
	setup, generate          time.Duration
	pairs, attempted, failed int64 // failed: Failed + Skipped + Shed pairs
	checks                   []string
	wall                     time.Duration // probing wall time: pairs_per_s's denominator
	rounds                   []time.Duration
	digest                   string
	netsimProbes             int64
	replayPairs              int64
	replayWall               time.Duration
	peakRSS                  float64 // the unit's RSS high-water mark, MB
	// late, when set, holds checks run after every unit, outside any
	// unit's RSS high-water mark.
	late func() []string
}

// unitFunc runs one unit of a workload; lay is nil for an untraced unit.
type unitFunc func(p *params, lay *layers) (unitOut, error)

func workloadUnit(name string) unitFunc {
	switch name {
	case "study":
		return studyUnit
	case "daemon-churn":
		return daemonUnit
	}
	return liveUnit
}

// run repeats units of p's workload until p.seconds have elapsed and the
// run has timed p.minRounds rounds, prints a human-readable summary to w,
// and returns the result object.
func run(p params, w io.Writer) (Result, error) {
	unit := workloadUnit(p.workload)
	start := time.Now()
	var (
		outs             []unitOut
		lay              = &layers{tp: new(seam), net: new(seam), mux: new(seam)}
		untraced, traced struct {
			pairs int64
			wall  time.Duration
		}
		rounds int
	)
	if p.workload == "live-capture-replay" {
		lay.mux = lay.tp
	} else {
		lay.net = lay.tp
	}
	for u := 0; ; u++ {
		var l *layers
		if p.trace && u%2 == 1 {
			l = lay
		}
		// Each unit starts as a fresh process would: heap collected, freed
		// memory returned to the system, and the RSS high-water mark reset.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return Result{}, err
		}
		p.unit, p.unitSeed = u, derive(p.seed, uint64(u))
		out, err := unit(&p, l)
		if err != nil {
			return Result{}, fmt.Errorf("%s unit %d: %w", p.workload, u, err)
		}
		out.peakRSS = peakRSSMB()
		outs = append(outs, out)
		switch {
		case u == 0:
		case l != nil:
			rounds += len(out.rounds)
			traced.pairs += out.pairs
			traced.wall += out.wall
		default:
			rounds += len(out.rounds)
			untraced.pairs += out.pairs
			untraced.wall += out.wall
		}
		fmt.Fprintf(w, "unit %d: pairs=%d rounds=%d wall=%.3fs setup=%.4fs peak_rss=%.1fMB stats=%s netsim_probes=%d traced=%v\n",
			u, out.pairs, len(out.rounds), out.wall.Seconds(), out.setup.Seconds(), out.peakRSS, out.digest, out.netsimProbes, l != nil)
		elapsed := time.Since(start)
		perUnit := elapsed / time.Duration(len(outs))
		enough := rounds >= p.minRounds && len(outs) > p.minUnits
		if enough && (elapsed+perUnit > secondsDur(p.seconds) || elapsed > maxRun) {
			break
		}
	}

	var (
		pairs, attempted, failed int64
		unitRates                []float64
		unitRSS                  []float64
		replayRate               []float64
		roundMs                  []float64
		setupS                   []float64
		generateS                []float64
		failedText               []string
	)
	for u, o := range outs {
		pairs += o.pairs
		attempted += o.attempted
		failed += o.failed
		// The first unit pays the process's first-time costs, so it is a
		// warm-up: its set-up counts, its probing does not. Traced units are timed
		// with the seams in place, so they do not count either.
		if u > 0 && !(p.trace && u%2 == 1) {
			unitRates = append(unitRates, rate(o.pairs, o.wall))
			unitRSS = append(unitRSS, o.peakRSS)
			if o.replayWall > 0 {
				replayRate = append(replayRate, rate(o.replayPairs, o.replayWall))
			}
			for _, r := range o.rounds {
				roundMs = append(roundMs, ms(r))
			}
		}
		setupS = append(setupS, o.setup.Seconds())
		generateS = append(generateS, o.generate.Seconds())
		failedText = append(failedText, o.checks...)
		if o.late != nil {
			failedText = append(failedText, o.late()...)
		}
	}
	res := Result{
		Correct:   len(failedText) == 0,
		Attempted: attempted,
		Failed:    failed + int64(len(failedText)),
		Metrics:   make(map[string]Metric),
	}
	for _, f := range failedText {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	fmt.Fprintf(w, "workload=%s seed=%d units=%d rounds=%d pairs=%d\n",
		p.workload, p.seed, len(outs), len(roundMs), pairs)

	failedFrac := float64(res.Failed) / float64(res.Attempted)
	replayPPS := quantile(replayRate, 0.5)
	if !p.trace {
		m := res.Metrics
		// Rates and peaks are medians over units, so one unit slowed by a
		// noisy neighbour, or one whose garbage collection ran late, does
		// not move the run's figure.
		m["pairs_per_s"] = Metric{quantile(unitRates, 0.5), "pairs/s"}
		m["round_p50_ms"] = Metric{quantile(roundMs, 0.5), "ms"}
		m["round_p90_ms"] = Metric{quantile(roundMs, 0.9), "ms"}
		m["peak_rss_mb"] = Metric{quantile(unitRSS, 0.5), "MB"}
		m["setup_s"] = Metric{quantile(setupS, 0.5), "s"}
		fmt.Fprintf(w, "end-to-end: pairs_per_s=%.1f pairs/s  round_p50_ms=%.3f ms  round_p90_ms=%.3f ms (%d rounds)  peak_rss_mb=%.1f MB  setup_s=%.4f s (%d set-ups)  failed_frac=%g ratio",
			m["pairs_per_s"].Value, m["round_p50_ms"].Value, m["round_p90_ms"].Value, len(roundMs),
			m["peak_rss_mb"].Value, m["setup_s"].Value, len(setupS), failedFrac)
		if p.workload == "live-capture-replay" {
			fmt.Fprintf(w, "  replay_pairs_per_s=%.1f pairs/s", replayPPS)
		}
		fmt.Fprintln(w)
		return res, nil
	}

	l := lay
	f := func(n int64) float64 { return float64(n) }
	tracedPairs, probes := f(l.pairs), f(l.tp.probes.Load())
	m := res.Metrics
	m["topo.generate_s"] = Metric{quantile(generateS, 0.5), "s"}
	m["topo.round_start_ms"] = Metric{div(ms(l.roundStart), float64(l.roundStarts)), "ms"}
	m["netsim.batches"] = Metric{f(l.net.calls.Load()), "count"}
	m["netsim.probes"] = Metric{f(l.net.probes.Load()), "count"}
	m["netsim.ns_per_probe"] = Metric{div(f(l.net.busyNs.Load()), f(l.net.probes.Load())), "ns"}
	m["netsim.busy_frac"] = Metric{div(f(l.net.busyNs.Load()), f(int64(l.workerTime))), "ratio"}
	m["netsim.star_frac"] = Metric{div(f(l.net.stars.Load()), f(l.net.probes.Load())), "ratio"}
	m["tracer.probes_per_pair"] = Metric{div(probes, tracedPairs), "probes/pair"}
	m["tracer.batches_per_pair"] = Metric{div(f(l.tp.calls.Load()), tracedPairs), "batches/pair"}
	m["measure.self_us_per_pair"] = Metric{div(f(int64(l.workerTime)-l.tp.busyNs.Load())/1e3, tracedPairs), "us"}
	m["runtime.allocs_per_pair"] = Metric{div(float64(l.allocs), tracedPairs), "allocs/pair"}
	m["runtime.gc_cpu_frac"] = Metric{div(l.gcCPU, l.cpu), "ratio"}
	m["runtime.heap_live_mb"] = Metric{l.heapLiveMax / 1e6, "MB"}
	m["daemon.pairs_per_tick"] = Metric{div(tracedPairs, f(l.ticks)), "pairs"}
	m["daemon.snapshot_ms_p50"] = Metric{quantile(l.snapshotMs, 0.5), "ms"}
	m["daemon.checkpoint_mb"] = Metric{quantile(l.ckMB, 0.5), "MB"}
	m["daemon.checkpoint_save_ms"] = Metric{quantile(l.ckSaveMs, 0.5), "ms"}
	m["daemon.checkpoint_load_ms"] = Metric{quantile(l.ckLoadMs, 0.5), "ms"}
	m["mux.us_per_probe"] = Metric{div(f(l.mux.busyNs.Load())/1e3, f(l.mux.probes.Load())), "us"}
	m["mux.sends_per_probe"] = Metric{div(f(l.sends), f(l.mux.probes.Load())), "ratio"}
	m["mux.inflight_peak"] = Metric{float64(l.inflightPeak), "count"}
	m["mux.rto_mean_ms"] = Metric{quantile(l.rtoMeanMs, 0.5), "ms"}
	m["pcap.records"] = Metric{f(l.records), "count"}
	m["pcap.capture_ns_per_record"] = Metric{div(f(l.capture.busyNs.Load()), f(l.records)), "ns"}
	m["pcap.install_ms"] = Metric{quantile(l.installMs, 0.5), "ms"}
	m["pcap.file_mb"] = Metric{quantile(l.fileMB, 0.5), "MB"}
	m["pcap.read_ns_per_record"] = Metric{div(f(int64(l.readNs)), f(l.records)), "ns"}
	m["replay.index_ms"] = Metric{quantile(l.indexMs, 0.5), "ms"}
	m["replay.us_per_probe"] = Metric{div(f(l.replay.busyNs.Load())/1e3, f(l.replay.probes.Load())), "us"}
	m["replay.exchanges"] = Metric{f(l.exchanges), "count"}
	m["replay.leftover"] = Metric{f(l.leftover), "count"}
	m["replay.junk"] = Metric{f(l.junk), "count"}
	m["replay.pairs_per_s"] = Metric{rate(l.replayPairs, l.replayWall), "pairs/s"}
	m["trace.overhead_frac"] = Metric{1 - div(rate(traced.pairs, traced.wall), rate(untraced.pairs, untraced.wall)), "ratio"}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "per-layer: %s=%s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', 6, 64), m[k].Unit)
	}
	return res, nil
}

// maxRun caps a run's measured time well inside the 180 s a run may take.
const maxRun = 120 * time.Second

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// div is a / b, or 0 when b is 0: a layer a workload does not exercise
// reports 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current RSS, so the next peakRSSMB reads the peak since the reset.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the RSS high-water mark: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// rtSample is a reading of the runtime counters the runtime.* metrics
// difference across a traced unit's probing phase.
type rtSample struct {
	allocs     uint64
	gcCPU, cpu float64
	heapLive   float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.cpu = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		r.heapLive = float64(s[3].Value.Uint64())
	}
	return r
}

// addRuntime folds the counters' change over one traced probing phase.
func (l *layers) addRuntime(before, after rtSample) {
	l.allocs += after.allocs - before.allocs
	l.gcCPU += after.gcCPU - before.gcCPU
	l.cpu += after.cpu - before.cpu
	l.heapLiveMax = math.Max(l.heapLiveMax, after.heapLive)
}
