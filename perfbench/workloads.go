package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/daemon"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// Salts derive each input of a unit from the unit's seed, itself derived
// from the workload seed, so the program under test receives generated
// inputs only. Each unit of a run gets its own topology, so a run's
// medians average over several topologies rather than resting on one.
const (
	saltTopology = 0x746f706f
	saltPorts    = 0x706f7274
	saltDynamics = 0x64796e61
	saltDrops    = 0x64726f70
)

// liveRetries is the mux's re-send budget; the drop schedule relies on the
// first re-send of a dropped probe being answered.
const liveRetries = 1

// liveTimeout is both the mux's timeout cap and its floor (-timeout 2s
// -timeout-floor 2s). SimConn reports a timeout the instant nothing is
// deliverable, and the mux then expires its earliest deadline. With
// per-destination adaptive deadlines a worker registering between that
// read and the expiry can hold the earliest deadline while its answer
// already waits, so the answered probe is re-sent and its second answer
// is junk. Equal timeouts keep deadlines in send order, so only
// unanswered probes expire.
const liveTimeout = 2 * time.Second

// checkpointEvery is daemon-churn's -checkpoint-every. Encoding the 30 MB
// checkpoint is most of a checkpoint tick, and its speed follows the
// host's memory speed, which drifts over minutes on a shared machine; at
// one checkpoint a tick that drift set every tick time. At five, a fifth
// of the ticks checkpoint: round_p50_ms times probing ticks and
// round_p90_ms checkpoint ticks.
const checkpointEvery = 5

// dropEvery selects about one probe in dropEvery whose first transmission
// the live-capture-replay SimConn drops.
const dropEvery = 50

func derive(seed int64, salt uint64) int64 {
	x := uint64(seed) ^ salt
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

func workers() int { return runtime.NumCPU() }

// genConfig is anomaly-study's default generator at the unit's size:
// mid-trace flips and per-packet balancers on.
func genConfig(p *params) topo.GenConfig {
	gc := topo.DefaultGenConfig()
	gc.Seed = derive(p.unitSeed, saltTopology)
	gc.Destinations = p.dests
	return gc
}

// campaignConfig is the paired campaign every workload but the daemon
// runs: batch and stream on, no checkpoint.
func campaignConfig(p *params, sc *topo.Scenario) measure.Config {
	return measure.Config{
		Dests:    sc.Dests,
		Rounds:   p.rounds,
		Workers:  workers(),
		PortSeed: derive(p.unitSeed, saltPorts),
		ShardOf:  sc.ShardOf,
		Batch:    true,
		Stream:   true,
	}
}

// roundClock is the RoundStart seam: it marks each round's start and, in a
// traced unit, times the scenario's own RoundStart.
type roundClock struct {
	inner func(int)
	lay   *layers
	marks []time.Time
}

func (c *roundClock) start(r int) {
	now := time.Now()
	c.marks = append(c.marks, now)
	if c.inner == nil {
		return
	}
	c.inner(r)
	if c.lay != nil {
		c.lay.roundStart += time.Since(now)
		c.lay.roundStarts++
	}
}

// rounds returns each round's wall time; the last round ends at end.
func (c *roundClock) rounds(end time.Time) []time.Duration {
	out := make([]time.Duration, len(c.marks))
	for i, m := range c.marks {
		next := end
		if i+1 < len(c.marks) {
			next = c.marks[i+1]
		}
		out[i] = next.Sub(m)
	}
	return out
}

// probing brackets a unit's probing phase and, in a traced unit, folds the
// runtime counters' change over it.
type probing struct {
	lay    *layers
	before rtSample
	start  time.Time
}

func startProbing(lay *layers) *probing {
	pr := &probing{lay: lay}
	if lay != nil {
		pr.before = readRuntime()
	}
	pr.start = time.Now()
	return pr
}

// done records a traced unit's probing phase: pairs completed in wall.
func (pr *probing) done(pairs int64, wall time.Duration) {
	if l := pr.lay; l != nil {
		l.addRuntime(pr.before, readRuntime())
		l.pairs += pairs
		l.workerTime += wall * time.Duration(workers())
	}
}

func studyUnit(p *params, lay *layers) (unitOut, error) {
	var out unitOut
	t0 := time.Now()
	sc := topo.Generate(genConfig(p))
	out.generate = time.Since(t0)
	clock := &roundClock{inner: sc.RoundStart, lay: lay}
	cfg := campaignConfig(p, sc)
	cfg.RoundStart = clock.start
	tp := sc.Transport()
	if lay != nil {
		tp = timed(tp, lay.tp)
	}
	camp, err := measure.NewCampaign(tp, cfg)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)

	pr := startProbing(lay)
	res, err := camp.Run()
	end := time.Now()
	if err != nil {
		return out, err
	}
	st := res.Stats
	out.wall = end.Sub(pr.start)
	pr.done(int64(st.Robust.Probed), out.wall)
	out.rounds = clock.rounds(end)
	out.account(st, int64(len(sc.Dests)*p.rounds))
	out.checkDirection(st, true)
	out.digest = digest(st)
	out.netsimProbes = netsimProbes(sc.Nets)
	return out, nil
}

// daemonConfig is measured's Tick loop as daemon-churn runs it: period 2, a
// queue cap of the dest count so nothing sheds, a checkpoint every
// checkpointEvery ticks.
func daemonConfig(p *params, sc *topo.Scenario, ckPath string) daemon.Config {
	return daemon.Config{
		Dests:           sc.Dests,
		Transport:       sc.Transport(),
		Probe:           measure.ProbeConfig{PortSeed: derive(p.unitSeed, saltPorts), Batch: true},
		Period:          2,
		Workers:         workers(),
		QueueCap:        len(sc.Dests),
		CheckpointPath:  ckPath,
		CheckpointEvery: checkpointEvery,
		RoundStart:      sc.RoundStart,
		TransportState:  probeCounters(sc.Nets),
		FreshStart:      true,
	}
}

func daemonGenConfig(p *params) topo.GenConfig {
	gc := genConfig(p)
	gc.Delay, gc.Load, gc.Churn = 1, 0.3, 0.5
	gc.DynamicsSeed = derive(p.unitSeed, saltDynamics)
	return gc
}

func daemonUnit(p *params, lay *layers) (unitOut, error) {
	var out unitOut
	ckPath := filepath.Join(p.dir, fmt.Sprintf("daemon-checkpoint-%d.json", p.unit))
	t0 := time.Now()
	sc := topo.Generate(daemonGenConfig(p))
	out.generate = time.Since(t0)
	cfg := daemonConfig(p, sc, ckPath)
	clock := &roundClock{inner: sc.RoundStart, lay: lay}
	cfg.RoundStart = clock.start
	if lay != nil {
		cfg.Transport = timed(cfg.Transport, lay.tp)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return out, err
	}
	out.setup = time.Since(t0)

	pr := startProbing(lay)
	var st *measure.Stats
	for i := 0; i < p.rounds; i++ {
		s := time.Now()
		d.Tick()
		tick := time.Since(s)
		out.rounds = append(out.rounds, tick)
		out.wall += tick
		s = time.Now()
		st = d.Snapshot()
		if lay != nil {
			lay.snapshotMs = append(lay.snapshotMs, ms(time.Since(s)))
		}
	}
	// Probing wall time is the ticks alone; the snapshots beside them are
	// timed on their own.
	pr.done(int64(st.Robust.Probed), out.wall)
	if lay != nil {
		lay.ticks += int64(p.rounds)
	}
	if err := d.Stop(); err != nil {
		return out, fmt.Errorf("stopping daemon: %w", err)
	}
	// The pairs attempted are those folded or shed; the checkpoint's
	// per-destination table is the independent count they are checked
	// against.
	out.account(st, int64(st.Robust.Probed+st.Robust.Failed+st.Robust.Skipped+st.Robust.Shed))
	out.checkDirection(st, false)
	out.digest = digest(st)
	out.netsimProbes = netsimProbes(sc.Nets)
	if st.Routes != st.Robust.Probed {
		out.checks = append(out.checks, fmt.Sprintf("daemon served %d routes for %d probed pairs", st.Routes, st.Robust.Probed))
	}
	// Loading the 30 MB checkpoint back takes about a second and is not
	// part of the workload, so a run checks it fully once, after every
	// unit's RSS is read, and times it on traced units.
	switch {
	case lay != nil:
		out.checks = append(out.checks, checkDaemonCheckpoint(p, ckPath, st, lay, false)...)
	case p.unit == 0:
		pc := *p
		out.late = func() []string { return checkDaemonCheckpoint(&pc, ckPath, st, nil, true) }
	default:
		if err := os.Remove(ckPath); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkDaemonCheckpoint checks that the daemon's final checkpoint loads
// back and agrees with the served statistics and, with recover, that it
// restores a daemon serving byte-identical statistics. In a traced unit it
// also times loading and saving that checkpoint.
func checkDaemonCheckpoint(p *params, ckPath string, st *measure.Stats, lay *layers, recover bool) []string {
	var bad []string
	s := time.Now()
	ck, err := daemon.LoadCheckpoint(ckPath)
	load := time.Since(s)
	if err != nil || ck == nil {
		return []string{fmt.Sprintf("daemon checkpoint does not load back: %v", err)}
	}
	if lay != nil {
		s = time.Now()
		err := ck.Save(ckPath + ".copy")
		save := time.Since(s)
		if err != nil {
			bad = append(bad, fmt.Sprintf("saving the loaded daemon checkpoint: %v", err))
		}
		lay.ckLoadMs = append(lay.ckLoadMs, ms(load))
		lay.ckSaveMs = append(lay.ckSaveMs, ms(save))
		if fi, err := os.Stat(ckPath); err == nil {
			lay.ckMB = append(lay.ckMB, float64(fi.Size())/1e6)
		}
	}
	if ck.Round != int64(p.rounds) {
		bad = append(bad, fmt.Sprintf("daemon checkpoint is at round %d, want %d", ck.Round, p.rounds))
	}
	var pairs int64
	for _, ds := range ck.Dests {
		pairs += ds.Pairs
	}
	if pairs != int64(st.Robust.Probed) {
		bad = append(bad, fmt.Sprintf("daemon pair accounting: checkpoint table holds %d pairs, stats %d probed",
			pairs, st.Robust.Probed))
	}
	if !recover {
		return bad
	}

	sc := topo.Generate(daemonGenConfig(p))
	cfg := daemonConfig(p, sc, ckPath)
	cfg.FreshStart = false
	d, err := daemon.New(cfg)
	if err != nil {
		return append(bad, fmt.Sprintf("daemon does not recover from its checkpoint: %v", err))
	}
	if ok, at := d.Recovered(); !ok || at != int64(p.rounds) {
		bad = append(bad, fmt.Sprintf("daemon recovered=%v at round %d, want round %d", ok, at, p.rounds))
	}
	if got := digest(d.Snapshot()); got != digest(st) {
		bad = append(bad, "recovered daemon serves different statistics")
	}
	if err := d.Stop(); err != nil {
		bad = append(bad, fmt.Sprintf("stopping recovered daemon: %v", err))
	}
	return bad
}

func liveUnit(p *params, lay *layers) (unitOut, error) {
	var out unitOut
	capPath := filepath.Join(p.dir, "live.pcap")
	t0 := time.Now()
	sc := topo.Generate(genConfig(p))
	out.generate = time.Since(t0)
	capture, err := pcap.CreateCapture(capPath)
	if err != nil {
		return out, err
	}
	var sink live.CaptureSink = capture
	respond := func(probe []byte) ([]byte, bool) {
		resp, _, ok := sc.Net.Exchange(probe)
		return resp, ok
	}
	if lay != nil {
		sink = timedSink{capture, &lay.capture}
		respond = timedRespond(respond, lay.net)
	}
	conn := &live.SimConn{Respond: respond, Sched: live.SimSchedule{Drop: firstSendDrops(derive(p.unitSeed, saltDrops))}}
	m, err := live.NewMux(live.MuxConfig{Source: sc.Net.Source(), Conn: conn, Retries: liveRetries, Capture: sink,
		Timeout: liveTimeout, TimeoutFloor: liveTimeout})
	if err != nil {
		return out, err
	}
	clock := &roundClock{inner: sc.RoundStart, lay: lay}
	cfg := campaignConfig(p, sc)
	cfg.MinTTL = 1
	cfg.RoundStart = clock.start
	cfg.TransportFor = func(int) tracer.Transport {
		if lay != nil {
			return timed(m.Transport(), lay.tp)
		}
		return m.Transport()
	}
	camp, err := measure.NewCampaign(nil, cfg)
	if err != nil {
		m.Close()
		return out, err
	}
	out.setup = time.Since(t0)

	pr := startProbing(lay)
	res, runErr := camp.Run()
	runEnd := time.Now()
	health := m.Health()
	closeErr := m.Close()
	s := time.Now()
	installErr := capture.Close()
	installEnd := time.Now()
	if runErr != nil {
		return out, runErr
	}
	if closeErr != nil || installErr != nil {
		return out, fmt.Errorf("closing mux (%v) or installing capture (%v)", closeErr, installErr)
	}
	st := res.Stats
	out.wall = installEnd.Sub(pr.start)
	pr.done(int64(st.Robust.Probed), out.wall)
	out.rounds = clock.rounds(runEnd)
	out.account(st, int64(len(sc.Dests)*p.rounds))
	out.digest = digest(st)
	out.netsimProbes = int64(sc.Net.ProbeCount())
	records := int64(capture.Count())
	if lay != nil {
		lay.sends += int64(conn.SendCount())
		lay.inflightPeak = max(lay.inflightPeak, health.InFlightPeak)
		lay.rtoMeanMs = append(lay.rtoMeanMs, float64(health.RTOMeanNs)/1e6)
		lay.records += records
		lay.installMs = append(lay.installMs, ms(installEnd.Sub(s)))
		if fi, err := os.Stat(capPath); err == nil {
			lay.fileMB = append(lay.fileMB, float64(fi.Size())/1e6)
		}
	}

	// Replay phase: read the capture back, index it, and rerun the same
	// campaign over it. Any failure here is a failed output check.
	if p.tamper != nil {
		if err := p.tamper(capPath); err != nil {
			return out, err
		}
	}
	rst, rt, check := replayCapture(capPath, cfg, lay, &out)
	if check != "" {
		out.checks = append(out.checks, check)
		return out, nil
	}
	out.replayPairs = int64(rst.Robust.Probed)
	if lay != nil {
		lay.exchanges += int64(rt.Exchanges())
		lay.leftover += int64(rt.Leftover())
		lay.junk += int64(rt.Junk())
		lay.replayPairs += out.replayPairs
		lay.replayWall += out.replayWall
	}
	if digest(rst) != out.digest {
		out.checks = append(out.checks, "replayed statistics differ from the live statistics")
	}
	if l, j := rt.Leftover(), rt.Junk(); l != 0 || j != 0 {
		out.checks = append(out.checks, fmt.Sprintf("replay left %d captured exchange(s) unserved and %d junk record(s)", l, j))
	}
	return out, nil
}

// replayCapture reads the capture at path, indexes it, and reruns the
// campaign cfg over it, adding the three phases' time to out.replayWall.
// A non-empty check describes why the replay failed.
func replayCapture(path string, cfg measure.Config, lay *layers, out *unitOut) (*measure.Stats, *replay.Transport, string) {
	s := time.Now()
	recs, err := pcap.ReadFile(path)
	read := time.Since(s)
	if err != nil {
		return nil, nil, fmt.Sprintf("reading the capture back: %v", err)
	}
	s = time.Now()
	rt, err := replay.FromRecords(recs, replay.Config{Retries: liveRetries})
	index := time.Since(s)
	if err != nil {
		return nil, nil, fmt.Sprintf("indexing the capture: %v", err)
	}
	cfg.RoundStart = nil
	// Replay divergence is deterministic, so retrying would only bury it
	// (the same policy as anomaly-study -replay).
	cfg.FailFast = true
	cfg.TransportFor = func(int) tracer.Transport {
		if lay != nil {
			return timed(rt, &lay.replay)
		}
		return rt
	}
	camp, err := measure.NewCampaign(nil, cfg)
	if err != nil {
		return nil, nil, fmt.Sprintf("building the replay campaign: %v", err)
	}
	s = time.Now()
	res, err := camp.Run()
	runWall := time.Since(s)
	out.replayWall += read + index + runWall
	if lay != nil {
		lay.readNs += read
		lay.indexMs = append(lay.indexMs, ms(index))
	}
	if err != nil {
		return nil, nil, fmt.Sprintf("replayed campaign failed: %v", err)
	}
	return res.Stats, rt, ""
}

// firstSendDrops drops the first transmission of about one probe in
// dropEvery, chosen by a seeded hash of the probe bytes; the probe's
// re-send is answered, so retransmits, Karn's rule and captured retries
// all run.
func firstSendDrops(salt int64) func(int, []byte) bool {
	var mu sync.Mutex
	pending := make(map[string]bool)
	return func(_ int, probe []byte) bool {
		h := uint64(14695981039346656037) ^ uint64(salt)
		for _, b := range probe {
			h = (h ^ uint64(b)) * 1099511628211
		}
		if h%dropEvery != 0 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		k := string(probe)
		if pending[k] {
			delete(pending, k)
			return false
		}
		pending[k] = true
		return true
	}
}

// account fills the unit's pair counts from its statistics and checks
// that they add up: Probed + Failed + Skipped + Shed equals attempted.
func (out *unitOut) account(st *measure.Stats, attempted int64) {
	r := st.Robust
	out.pairs = int64(r.Probed)
	out.attempted = attempted
	out.failed = int64(r.Failed + r.Skipped + r.Shed)
	if got := int64(r.Probed + r.Failed + r.Skipped + r.Shed); got != attempted {
		out.checks = append(out.checks, fmt.Sprintf("pair accounting: probed %d + failed %d + skipped %d + shed %d != %d attempted",
			r.Probed, r.Failed, r.Skipped, r.Shed, attempted))
	}
}

// checkDirection checks the paper's direction: classic traceroute shows
// anomalies that Paris avoids. Classic loops and cycles absent from the
// paired Paris route (cause per-flow) must exist, classic graphs must
// hold more diamonds, and classic loops must outnumber the loops only
// Paris saw. strict also asks that the per-flow classic loops alone
// outnumber the Paris-only loops, which proves classic shows more loops
// in total. Under daemon-churn's -churn 0.5 that stronger form fails for
// some seeds: netsim places each probe at its own hashed virtual time in
// the 30 s round, so one Paris trace's probes straddle the 5 s balancer
// weight-rotation windows and Paris sees churn loops too.
func (out *unitOut) checkDirection(st *measure.Stats, strict bool) {
	lf, po := st.Loops.ByCause[anomaly.CausePerFlowLB], st.Loops.ParisOnly
	if lf == 0 || st.Loops.Instances <= po || (strict && lf <= po) {
		out.checks = append(out.checks, fmt.Sprintf("classic shows %d loops (%d per-flow), Paris alone %d", st.Loops.Instances, lf, po))
	}
	if st.Cycles.ByCause[anomaly.CausePerFlowLB] == 0 {
		out.checks = append(out.checks, "classic shows no per-flow cycle instance")
	}
	if st.Diamonds.Total <= st.Diamonds.ParisTotal {
		out.checks = append(out.checks, fmt.Sprintf("classic graphs hold %d diamonds, not more than Paris's %d",
			st.Diamonds.Total, st.Diamonds.ParisTotal))
	}
}

// digest fingerprints a Stats value by its canonical JSON.
func digest(st *measure.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func netsimProbes(nets []*netsim.Network) int64 {
	var n int64
	for _, net := range nets {
		n += int64(net.ProbeCount())
	}
	return n
}

// probeCounters is the transport cursor measured checkpoints beside the
// daemon state: each shard network's probe counter.
func probeCounters(nets []*netsim.Network) func() json.RawMessage {
	return func() json.RawMessage {
		counts := make([]int, len(nets))
		for i, n := range nets {
			counts[i] = n.ProbeCount()
		}
		b, err := json.Marshal(struct{ ProbeCounts []int }{counts})
		if err != nil {
			return nil
		}
		return b
	}
}
