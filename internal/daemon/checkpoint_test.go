package daemon

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/measure"
)

// TestDaemonCheckpointSaveMatchesMarshal: Save streams exactly the bytes
// json.Marshal writes for the same checkpoint — on a real soak checkpoint
// (churn, shedding, panics, fault windows, a transport payload) and on
// scheduler entries with every omitempty field zero and set — and an
// unencodable checkpoint fails Save without touching the installed file.
func TestDaemonCheckpointSaveMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	tickPath := filepath.Join(dir, "soak.ck.json")
	d := mustNew(t, soakConfig(t, tickPath))
	defer d.Stop()
	tick(d, 12)

	// The checkpoint Tick wrote, against its own decoded state.
	file, err := os.ReadFile(tickPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(tickPath)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(loaded); !bytes.Equal(file, want) {
		t.Fatal("checkpoint written by Tick differs from json.Marshal of its state")
	}

	// A live snapshot, straight from the daemon's memory.
	d.mu.Lock()
	ck := d.checkpointLocked()
	d.mu.Unlock()
	if ck.Shed == 0 || ck.Panics == 0 || len(ck.Acc.Dests) == 0 || len(ck.Transport) == 0 {
		t.Fatalf("degenerate soak checkpoint: shed %d panics %d dests %d", ck.Shed, ck.Panics, len(ck.Acc.Dests))
	}
	path := filepath.Join(dir, "ck.json")
	requireSaveIsMarshal(t, ck, path)

	ck.Dests = append(ck.Dests, DestState{}, DestState{Quarantined: true}, DestState{
		NextDue: -1, Seen: true, ParisFP: ^uint64(0), ClassicFP: 1, ConsecFails: 2,
		Quarantined: true, HintParis: 3, HintClassic: -4, Pairs: 5, ShedStreak: 6,
	})
	ck.Transport = json.RawMessage(" {\"Count\" :\n 710 } ")
	requireSaveIsMarshal(t, ck, path)
	ck.Dests, ck.Transport = nil, nil
	installed := requireSaveIsMarshal(t, ck, path)

	ck.Transport = json.RawMessage(`{"Count":`)
	if err := ck.Save(path); err == nil {
		t.Fatal("Save accepted an invalid transport payload")
	}
	if stale, _ := filepath.Glob(path + ".tmp*"); len(stale) != 0 {
		t.Fatalf("failed Save leaked temp files: %v", stale)
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, installed) {
		t.Fatal("failed Save disturbed the installed checkpoint")
	}
}

// requireSaveIsMarshal saves ck to path and fails unless the file holds
// exactly json.Marshal(ck). It returns the file.
func requireSaveIsMarshal(t *testing.T, ck *Checkpoint, path string) []byte {
	t.Helper()
	want, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("saved checkpoint differs from json.Marshal at byte %d of %d/%d", i, len(got), len(want))
	}
	return got
}

// marshalCheckpoint is a soak checkpoint at round 6, one worker, written by
// the json.Marshal-based Save this package used before its checkpoints were
// streamed.
const marshalCheckpoint = "testdata/json-marshal.ck.json"

// TestDaemonResumesMarshalCheckpoint: checkpoints written by the old
// json.Marshal encoder are the files the streaming encoder writes, and a
// daemon recovers from one exactly as from its own.
func TestDaemonResumesMarshalCheckpoint(t *testing.T) {
	const at, more = 6, 4
	legacy, err := os.ReadFile(marshalCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(marshalCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var reencoded bytes.Buffer
	if err := ck.encode(&reencoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.Bytes(), legacy) {
		t.Fatal("re-encoding the old checkpoint changed its bytes")
	}

	// The same soak today, one worker so it is byte-deterministic, writes
	// the same file at the same round.
	build := func(path string) Config {
		cfg := soakConfig(t, path)
		cfg.Workers = 1
		return cfg
	}
	dir := t.TempDir()
	ownPath := filepath.Join(dir, "own.ck.json")
	a := mustNew(t, build(ownPath))
	tick(a, at)
	own, err := os.ReadFile(ownPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own, legacy) {
		t.Fatal("today's checkpoint of the same soak differs from the old encoder's file")
	}

	// Recovery from the old file continues exactly like recovery from
	// today's.
	legacyPath := filepath.Join(dir, "legacy.ck.json")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ownPath, own, 0o644); err != nil {
		t.Fatal(err)
	}
	var snaps [2][]byte
	for i, path := range []string{legacyPath, ownPath} {
		d := mustNew(t, build(path))
		if ok, round := d.Recovered(); !ok || round != at {
			t.Fatalf("%s: recovered=%v at %d, want round %d", filepath.Base(path), ok, round, at)
		}
		tick(d, more)
		snaps[i], _ = json.Marshal(d.Snapshot())
		if err := d.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("resuming from the old checkpoint diverged from resuming from today's")
	}
}

// benchCheckpoint runs a short churning simulator daemon with one checkpoint
// at its last tick and returns that checkpoint's path and decoded state.
func benchCheckpoint(b *testing.B) (string, *Checkpoint) {
	b.Helper()
	const dests, ticks = 200, 10
	path := filepath.Join(b.TempDir(), "bench.ck.json")
	cfg := testConfig(freeTopo(b, dests, 5, 0.5))
	cfg.Period = 2
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = ticks
	d := mustNew(b, cfg)
	tick(d, ticks)
	if err := d.Stop(); err != nil {
		b.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, ck
}

// BenchmarkCheckpointSave times Save of a daemon checkpoint: streaming
// encode, fsync, rename and directory sync.
func BenchmarkCheckpointSave(b *testing.B) {
	path, ck := benchCheckpoint(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	for b.Loop() {
		if err := ck.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointLoad times the restore side: reading and decoding the
// checkpoint, then rebuilding its accumulator by replaying the interned
// routes, as a recovering daemon does.
func BenchmarkCheckpointLoad(b *testing.B) {
	path, _ := benchCheckpoint(b)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	for b.Loop() {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.RestoreAccumulator(ck.Acc); err != nil {
			b.Fatal(err)
		}
	}
}
