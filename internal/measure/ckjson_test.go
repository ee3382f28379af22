package measure

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
)

// writeLog is an io.Writer that keeps what it is given and the size of
// every Write, so a test can see how the encoder streamed.
type writeLog struct {
	bytes.Buffer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// requireMarshalBytes encodes ck with the streaming encoder and fails
// unless the bytes are exactly json.Marshal's. It returns the write log.
func requireMarshalBytes(t *testing.T, ck *Checkpoint) *writeLog {
	t.Helper()
	want, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	var got writeLog
	if err := ck.encode(&got); err != nil {
		t.Fatalf("streaming encoding: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed checkpoint differs from json.Marshal at byte %d of %d/%d",
			firstDiff(got.Bytes(), want), got.Len(), len(want))
	}
	return &got
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCheckpointSaveMatchesMarshal pins the encoder to json.Marshal on real
// campaign checkpoints: one written by Save during a faulty multi-worker
// campaign with dynamics on (RTTs, quarantines, skipped destinations, a
// transport payload), and one built from a materialized campaign's pairs
// folded into a fresh accumulator.
func TestCheckpointSaveMatchesMarshal(t *testing.T) {
	const dests, rounds = 40, 6
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	gc := invarianceConfig(dests)
	gc.Delay = 1
	sc := topo.Generate(gc)
	cfg := checkpointConfig(sc, ckPath)
	cfg.Rounds = rounds
	cfg.Workers = 3
	cfg.QuarantineAfter = 2
	cfg.Sleep = func(time.Duration) {}
	cfg.TransportState = transportState(sc.Net)
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	camp, err := NewCampaign(netsim.WrapFaults(netsim.NewTransport(sc.Net), plan), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Robust.QuarantinedDests == 0 || res.Stats.RTT.Samples == 0 {
		t.Fatal("degenerate campaign: no quarantines or no RTTs")
	}

	file, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(ck); !bytes.Equal(file, want) {
		t.Fatalf("saved checkpoint differs from json.Marshal of its own state at byte %d", firstDiff(file, want))
	}
	got := requireMarshalBytes(t, ck)
	routed := 0
	for _, w := range ck.Workers {
		routed += len(w.Dests)
	}
	if len(got.writes) != routed+1 {
		t.Fatalf("encoder made %d writes, want one per destination (%d) plus the tail", len(got.writes), routed)
	}
	if largest := slices.Max(got.writes); largest > len(file)/4 {
		t.Fatalf("largest write %d bytes of a %d-byte checkpoint: the encoder is not streaming", largest, len(file))
	}

	// A materialized campaign's pairs, folded by hand: the encoder sees
	// the accumulator's own interned routes, not a decoded copy.
	sc2 := topo.Generate(gc)
	camp2, err := NewCampaign(netsim.NewTransport(sc2.Net), Config{
		Dests: sc2.Dests, Rounds: 3, Workers: 2, RoundStart: sc2.RoundStart, PortSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := camp2.Run()
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator()
	for _, round := range res2.Rounds {
		for i := range round {
			acc.Fold(&round[i])
		}
	}
	requireMarshalBytes(t, &Checkpoint{
		Version: CheckpointVersion, Digest: ^uint64(0), NextRound: 3,
		Health:    make([]HealthState, dests),
		Transport: json.RawMessage(" {\"ProbeCount\" :\n 12 } "),
		Workers:   []AccState{acc.State(), NewAccumulator().State()},
	})
}

// FuzzCheckpointEncode holds the streaming encoder to json.Marshal byte for
// byte. The first input is a checkpoint document — anything json.Unmarshal
// accepts into a Checkpoint, so nil against empty slices and maps, omitted
// zero fields, star hops, zoned IPv6 and extreme integers are all in reach
// — and the second is the opaque transport payload, installed verbatim, so
// invalid and whitespace-laden payloads reach the encoder too. When
// json.Marshal refuses the checkpoint, the encoder must refuse it as well.
func FuzzCheckpointEncode(f *testing.F) {
	for _, seed := range []struct{ doc, transport string }{
		// nil and empty slices and maps.
		{`{}`, ``},
		{`{"Health":[],"ParisHint":[],"ClasHint":[],"Workers":[]}`, ``},
		{`{"Workers":[{"LoopByCause":{},"CycleByCause":{},"Addrs":[],"LoopAddrs":[],"CycleAddrs":[],"SkippedDests":[],"Dests":[]}]}`, ``},
		{`{"Workers":[{"Dests":[{"Dest":"10.0.0.1","Routes":[],"LoopSigs":[],"CycleSigs":[]}]}]}`, ``},
		{`{"Workers":[{"Dests":[{"Dest":"10.0.0.1","Routes":[{"Route":null}]}]}]}`, ``},
		// zero-valued omitempty fields next to set ones.
		{`{"Health":[{},{"ConsecFails":2},{"Quarantined":true},{"ConsecFails":1,"Quarantined":true}],"ParisHint":[0,3],"ClasHint":[0]}`, ``},
		{`{"Workers":[{"RTTSamples":0,"RTTSum":5,"RTTMin":0,"RTTMax":-1}]}`, ``},
		// star hops (invalid Addr encodes as "") and a non-nil Route.All.
		{`{"Workers":[{"Dests":[{"Dest":"10.0.0.9","SawLoop":true,"Routes":[{"Classic":true,"Route":{"Dest":"10.0.0.9","Source":"192.0.2.1","Hops":[{"TTL":1,"Addr":"","Kind":0,"ProbeTTL":-1},{"TTL":2,"Addr":"10.1.2.3","RTT":1500000,"Kind":1,"ProbeTTL":1,"RespTTL":254,"IPID":65535,"Mismatched":true}],"All":[[],null,[{"TTL":1,"Addr":""}]],"Halt":2}}],"CycleSigs":[{"Addr":"10.1.2.3","LastRound":4,"Rounds":2}]}]}]}`, ``},
		// cause-map keys of 10 or more: "10" sorts before "2".
		{`{"Workers":[{"LoopByCause":{"2":1,"10":4,"1":7,"-3":1},"CycleByCause":{"11":1,"9":2}}]}`, ``},
		// IPv6, IPv4-mapped and zoned addresses, with characters to escape.
		{`{"Workers":[{"Addrs":["2001:db8::1","::ffff:10.0.0.1","fe80::1%eth0","fe80::2%a<b>&\"\\\u2028c"]}]}`, ``},
		// extreme integers.
		{`{"Version":-9223372036854775808,"Digest":18446744073709551615,"NextRound":9223372036854775807}`, ``},
		// transport payloads: whitespace to compact, HTML to escape, and an
		// invalid one json.Marshal refuses.
		{`{"Version":2}`, " { \"ProbeCount\" :\t12 ,\n \"Tag\": \"<a&b>\" } "},
		{`{"Version":2}`, `{"ProbeCount":`},
		{`{"Version":2}`, `  `},
	} {
		f.Add([]byte(seed.doc), []byte(seed.transport))
	}
	f.Fuzz(func(t *testing.T, doc, transport []byte) {
		var ck Checkpoint
		if err := json.Unmarshal(doc, &ck); err != nil {
			return
		}
		if len(transport) > 0 {
			ck.Transport = transport
		}
		want, werr := json.Marshal(&ck)
		var got bytes.Buffer
		gerr := ck.encode(&got)
		switch {
		case werr != nil && gerr == nil:
			t.Fatalf("json.Marshal refused the checkpoint (%v) but the encoder accepted it", werr)
		case werr == nil && gerr != nil:
			t.Fatalf("encoder refused a checkpoint json.Marshal accepts: %v", gerr)
		case werr == nil && !bytes.Equal(got.Bytes(), want):
			t.Fatalf("encoder output differs from json.Marshal at byte %d:\ngot:  %s\nwant: %s",
				firstDiff(got.Bytes(), want), got.Bytes(), want)
		}
	})
}

// marshalCheckpoint is a faulty campaign's checkpoint after round 3 of 6,
// written by the json.Marshal-based Save this package used before its
// checkpoints were streamed.
const marshalCheckpoint = "testdata/json-marshal.ck.json"

// TestCheckpointResumesMarshalCheckpoint: checkpoints written by the old
// json.Marshal encoder are the files the streaming encoder writes, and a
// campaign resumed from one finishes with the uninterrupted run's Stats.
func TestCheckpointResumesMarshalCheckpoint(t *testing.T) {
	const dests, rounds, killAt = 24, 6, 3
	plan := netsim.FaultPlan{Seed: 11, BlackholeEvery: 5}
	build := func(path string) (*Campaign, *topo.Scenario) {
		sc := topo.Generate(invarianceConfig(dests))
		cfg := checkpointConfig(sc, path)
		cfg.Rounds = rounds
		cfg.QuarantineAfter = 2
		cfg.Sleep = func(time.Duration) {}
		cfg.TransportState = transportState(sc.Net)
		camp, err := NewCampaign(netsim.WrapFaults(netsim.NewTransport(sc.Net), plan), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return camp, sc
	}

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

	// The same campaign today, halted after the same round, writes the
	// same file.
	dir := t.TempDir()
	ownPath := filepath.Join(dir, "own.ck")
	campI, scI := build(ownPath)
	ctx, cancel := context.WithCancel(context.Background())
	campI.cfg.RoundStart = func(r int) {
		if r == killAt {
			cancel()
		}
		scI.RoundStart(r)
	}
	if _, err := campI.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}
	if own, err := os.ReadFile(ownPath); err != nil || !bytes.Equal(own, legacy) {
		t.Fatalf("today's checkpoint of the same campaign differs from the old encoder's file (%v)", err)
	}

	campU, _ := build(filepath.Join(dir, "u.ck"))
	resU, err := campU.Run()
	if err != nil {
		t.Fatal(err)
	}
	campR, scR := build(filepath.Join(dir, "r.ck"))
	restoreTransport(t, scR.Net, ck.Transport)
	if err := campR.Resume(ck); err != nil {
		t.Fatal(err)
	}
	resR, err := campR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resU.Stats.Robust.QuarantinedDests == 0 {
		t.Fatal("degenerate: no quarantines in the reference run")
	}
	if !reflect.DeepEqual(resU.Stats, resR.Stats) {
		t.Errorf("resumed from the old checkpoint, stats differ:\nuninterrupted: %+v\nresumed:       %+v", resU.Stats, resR.Stats)
	}
}
