package measure

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// checkpointConfig is the campaign shape the resume tests run: streaming
// and batched with one worker over a flip-free topology — the conditions
// under which two plain runs are byte-identical, so any divergence after a
// resume is the checkpoint layer's fault and nothing else's.
func checkpointConfig(sc *topo.Scenario, path string) Config {
	return Config{
		Dests:          sc.Dests,
		Rounds:         8,
		Workers:        1,
		RoundStart:     sc.RoundStart,
		PortSeed:       42,
		Batch:          true,
		Stream:         true,
		CheckpointPath: path,
	}
}

// transportState captures a network's probe counter as the opaque
// checkpoint payload, the way a binary would.
func transportState(net *netsim.Network) func() json.RawMessage {
	return func() json.RawMessage {
		b, _ := json.Marshal(struct{ ProbeCount int }{net.ProbeCount()})
		return b
	}
}

func restoreTransport(t *testing.T, net *netsim.Network, raw json.RawMessage) {
	t.Helper()
	var st struct{ ProbeCount int }
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding transport state: %v", err)
	}
	net.SetProbeCount(st.ProbeCount)
}

// TestCheckpointResumeByteIdentical is the acceptance gate: a campaign
// killed mid-study and resumed from its checkpoint — fresh process, fresh
// scenario, restored transport cursor — produces final statistics
// byte-identical to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	const dests, killAt = 60, 4
	dir := t.TempDir()

	// Uninterrupted reference run.
	scU := topo.Generate(invarianceConfig(dests))
	cfgU := checkpointConfig(scU, filepath.Join(dir, "uninterrupted.ck"))
	cfgU.TransportState = transportState(scU.Net)
	campU, err := NewCampaign(netsim.NewTransport(scU.Net), cfgU)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resU.Stats.Loops.Instances == 0 || resU.Stats.Diamonds.Total == 0 {
		t.Fatal("reference campaign degenerate")
	}

	// Interrupted run: the context is canceled as round killAt begins, so
	// the checkpoint on disk covers exactly rounds [0, killAt).
	ckPath := filepath.Join(dir, "interrupted.ck")
	scI := topo.Generate(invarianceConfig(dests))
	cfgI := checkpointConfig(scI, ckPath)
	cfgI.TransportState = transportState(scI.Net)
	ctx, cancel := context.WithCancel(context.Background())
	inner := cfgI.RoundStart
	cfgI.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		inner(r)
	}
	campI, err := NewCampaign(netsim.NewTransport(scI.Net), cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campI.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}

	// Resume in a "fresh process": new scenario, new campaign, transport
	// cursor restored from the checkpoint's opaque payload.
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != killAt {
		t.Fatalf("checkpoint resumes at round %d, want %d", ck.NextRound, killAt)
	}
	scR := topo.Generate(invarianceConfig(dests))
	cfgR := checkpointConfig(scR, filepath.Join(dir, "resumed.ck"))
	cfgR.TransportState = transportState(scR.Net)
	campR, err := NewCampaign(netsim.NewTransport(scR.Net), cfgR)
	if err != nil {
		t.Fatal(err)
	}
	restoreTransport(t, scR.Net, ck.Transport)
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("resumed stats differ from uninterrupted stats:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
	ju, err := json.Marshal(resU.Stats)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := json.Marshal(resR.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(ju) != string(jr) {
		t.Error("resumed stats JSON not byte-identical to uninterrupted run")
	}
}

// TestCheckpointResumeFromFinal: the final checkpoint (NextRound == Rounds)
// resumes to a no-op run whose merged statistics still match.
func TestCheckpointResumeFromFinal(t *testing.T) {
	const dests = 40
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "final.ck")

	sc := topo.Generate(invarianceConfig(dests))
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != 8 {
		t.Fatalf("final checkpoint cursor = %d, want 8", ck.NextRound)
	}
	sc2 := topo.Generate(invarianceConfig(dests))
	camp2, err := NewCampaign(netsim.NewTransport(sc2.Net), checkpointConfig(sc2, filepath.Join(dir, "re.ck")))
	if err != nil {
		t.Fatal(err)
	}
	if err := camp2.Resume(ck); err != nil {
		t.Fatal(err)
	}
	res2, err := camp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, res2.Stats) {
		t.Error("stats merged from a final checkpoint differ from the original run")
	}
}

// TestCheckpointCadence: CheckpointEvery > 1 writes only at its boundaries
// (plus the final round), so the cursor on disk is always a multiple of the
// cadence or the campaign end.
func TestCheckpointCadence(t *testing.T) {
	const dests = 20
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "cadence.ck")

	sc := topo.Generate(invarianceConfig(dests))
	cfg := checkpointConfig(sc, ckPath)
	cfg.CheckpointEvery = 3
	var cursors []int
	inner := cfg.RoundStart
	cfg.RoundStart = func(r int) {
		if ck, err := LoadCheckpoint(ckPath); err == nil {
			cursors = append(cursors, ck.NextRound)
		} else {
			cursors = append(cursors, -1)
		}
		inner(r)
	}
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	// Cursor seen at the start of each round r: no file until 3 rounds
	// (indices 0-2) completed, then 3 until 6 completed, then 6.
	want := []int{-1, -1, -1, 3, 3, 3, 6, 6}
	if !reflect.DeepEqual(cursors, want) {
		t.Fatalf("checkpoint cursors per round = %v, want %v", cursors, want)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NextRound != 8 {
		t.Fatalf("final cursor = %d, want 8", ck.NextRound)
	}
}

// TestCheckpointQuarantineSurvivesResume: the per-destination error budgets
// ride the checkpoint, so a quarantined destination stays quarantined after
// a resume and the accounting matches the uninterrupted faulty run.
func TestCheckpointQuarantineSurvivesResume(t *testing.T) {
	const (
		dests, rounds   = 40, 8
		killAt          = 4
		quarantineAfter = 2
	)
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	dir := t.TempDir()

	build := func(path string) (*Campaign, *topo.Scenario) {
		sc := topo.Generate(invarianceConfig(dests))
		cfg := checkpointConfig(sc, path)
		cfg.Rounds = rounds
		cfg.QuarantineAfter = quarantineAfter
		cfg.Sleep = func(time.Duration) {}
		cfg.TransportState = transportState(sc.Net)
		camp, err := NewCampaign(netsim.WrapFaults(netsim.NewTransport(sc.Net), plan), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return camp, sc
	}

	campU, _ := build(filepath.Join(dir, "u.ck"))
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resU.Stats.Robust.QuarantinedDests == 0 {
		t.Fatal("degenerate: no quarantines in reference run")
	}

	ckPath := filepath.Join(dir, "i.ck")
	campI, scI := build(ckPath)
	ctx, cancel := context.WithCancel(context.Background())
	innerRS := scI.RoundStart
	campI.cfg.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		innerRS(r)
	}
	if _, err := campI.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	campR, scR := build(filepath.Join(dir, "r.ck"))
	restoreTransport(t, scR.Net, ck.Transport)
	// The faults wrapper's per-destination ordinals restart at zero in the
	// resumed process, but a blackhole's schedule is position-independent
	// from BlackholeStart 0, so the policy outcome is identical.
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("faulty resumed stats differ:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
}

// TestResumeValidation: a checkpoint only resumes the campaign shape that
// wrote it.
func TestResumeValidation(t *testing.T) {
	const dests = 10
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "v.ck")

	sc := topo.Generate(invarianceConfig(dests))
	camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	// Different port seed → different digest → refused.
	sc2 := topo.Generate(invarianceConfig(dests))
	cfg2 := checkpointConfig(sc2, ckPath)
	cfg2.PortSeed = 43
	other, err := NewCampaign(netsim.NewTransport(sc2.Net), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint from a different campaign config")
	}

	// Non-streaming campaign → refused.
	cfg3 := checkpointConfig(sc2, ckPath)
	cfg3.Stream = false
	mat, err := NewCampaign(netsim.NewTransport(sc2.Net), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.Resume(ck); err == nil {
		t.Error("Resume accepted a checkpoint on a non-streaming campaign")
	}

	// Unknown version → refused at load.
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["Version"] = json.RawMessage("99")
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, "bad.ck")
	if err := os.WriteFile(badPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(badPath); err == nil {
		t.Error("LoadCheckpoint accepted an unknown version")
	}
}

// TestCheckpointFilesDeterministic: the same campaign prefix writes the
// same checkpoint bytes (sorted sets, seq-ordered routes), so checkpoint
// artifacts diff cleanly across runs.
func TestCheckpointFilesDeterministic(t *testing.T) {
	const dests = 30
	run := func(dir string) []byte {
		ckPath := filepath.Join(dir, "d.ck")
		sc := topo.Generate(invarianceConfig(dests))
		camp, err := NewCampaign(netsim.NewTransport(sc.Net), checkpointConfig(sc, ckPath))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := camp.Run(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(t.TempDir()), run(t.TempDir())
	if string(a) != string(b) {
		t.Error("identical campaigns wrote different checkpoint bytes")
	}
}

// tmpDebris lists any "<base>.tmp*" siblings of path — the leak the atomic
// writer must never leave behind.
func tmpDebris(t *testing.T, path string) []string {
	t.Helper()
	stale, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return stale
}

// TestAtomicWriteCleansTempOnError is the regression test for the temp-file
// leak: every error path of Checkpoint.Save must remove its temp file. The
// rename is forced to fail by making the target path a directory.
func TestAtomicWriteCleansTempOnError(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := (&Checkpoint{Version: CheckpointVersion, NextRound: 3}).Save(target); err == nil {
		t.Fatal("rename onto a directory should fail")
	}
	if stale := tmpDebris(t, target); len(stale) != 0 {
		t.Fatalf("failed write leaked temp files: %v", stale)
	}
	// The unencodable-value path fails mid-stream, after the temp file
	// exists: an invalid transport payload, which json.Marshal refuses too.
	target2 := filepath.Join(dir, "ck2.json")
	bad := &Checkpoint{Version: CheckpointVersion, Transport: json.RawMessage(`{"ProbeCount":`)}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("reference encoder accepted an invalid transport payload")
	}
	if err := bad.Save(target2); err == nil {
		t.Fatal("unencodable value should fail")
	}
	if stale := tmpDebris(t, target2); len(stale) != 0 {
		t.Fatalf("encode failure leaked temp files: %v", stale)
	}
	if _, err := os.Stat(target2); !os.IsNotExist(err) {
		t.Fatalf("encode failure installed a file: %v", err)
	}
}

// TestAtomicWriteSweepsStaleTemps: a writer killed between CreateTemp and
// Rename leaves a randomized temp name no later Save reuses; the next
// successful write must sweep it.
func TestAtomicWriteSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.json")
	for _, stale := range []string{target + ".tmp1111", target + ".tmp2222"} {
		if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bystander := filepath.Join(dir, "other.json.tmp999")
	if err := os.WriteFile(bystander, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (&Checkpoint{Version: CheckpointVersion, NextRound: 7}).Save(target); err != nil {
		t.Fatal(err)
	}
	if stale := tmpDebris(t, target); len(stale) != 0 {
		t.Fatalf("successful write left stale temps: %v", stale)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("sweep must only touch its own base's temps: %v", err)
	}
	got, err := LoadCheckpoint(target)
	if err != nil || got.NextRound != 7 {
		t.Fatalf("written content wrong: %+v %v", got, err)
	}
}
