package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"

	"repro/internal/atomicio"
	"repro/internal/measure"
)

// CheckpointVersion gates the daemon checkpoint schema.
const CheckpointVersion = 1

// Checkpoint is the daemon's serialized resumable state: the merged
// accumulator statistics (the measure checkpoint format, so the replay-based
// restore is shared with campaign resume), the per-destination cadence and
// quarantine table, the cumulative supervision counters, the event cursor,
// and the opaque transport cursor.
type Checkpoint struct {
	Version int
	// Digest fingerprints the destination list and probing shape the
	// checkpoint is valid for. Cadence knobs (Period, QueueCap, worker
	// count) are deliberately excluded: they are retunable across
	// restarts without invalidating the measured statistics.
	Digest uint64
	// Round is the next round the resumed daemon will run; rounds
	// [0, Round) are fully folded into Acc.
	Round int64
	// Cumulative supervision counters, restored so /stats survives a
	// restart without resetting the robustness history.
	Shed, Restarts, Stalls, Panics int64
	// EventSeq restores the /events cursor so post-restart events never
	// reuse sequence numbers a client has already consumed.
	EventSeq int64
	// Acc is the folded statistics, in the measure checkpoint format.
	Acc measure.AccState
	// Dests is the scheduler table, indexed like Config.Dests.
	Dests []DestState
	// Transport is the opaque payload of Config.TransportState.
	Transport json.RawMessage `json:",omitempty"`
}

// DestState is one destination's serialized scheduler state.
type DestState struct {
	NextDue            int64
	Seen               bool   `json:",omitempty"`
	ParisFP, ClassicFP uint64 `json:",omitempty"`
	ConsecFails        int    `json:",omitempty"`
	Quarantined        bool   `json:",omitempty"`
	HintParis          int    `json:",omitempty"`
	HintClassic        int    `json:",omitempty"`
	Pairs              int64  `json:",omitempty"`
	ShedStreak         int    `json:",omitempty"`
}

// configDigest hashes the daemon shape a checkpoint is only valid for: the
// destination list and the probing configuration that produced the folded
// statistics.
func configDigest(dests []netip.Addr, probe measure.ProbeConfig) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(x uint64) {
		h = (h ^ x) * prime
	}
	mix(uint64(len(dests)))
	for _, d := range dests {
		a := d.As4()
		mix(uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3]))
	}
	mix(uint64(probe.MinTTL))
	mix(uint64(probe.MaxTTL))
	mix(uint64(probe.MaxConsecutiveStars))
	mix(uint64(probe.PortSeed))
	flags := uint64(0)
	if probe.Batch {
		flags |= 1
	}
	mix(flags)
	mix(uint64(probe.BatchWindow))
	return h
}

// checkpointLocked snapshots the daemon between rounds. Caller holds d.mu
// with no jobs in flight (Tick checkpoints after wg.Wait), so the
// accumulator and the scheduler table are quiescent.
func (d *Daemon) checkpointLocked() *Checkpoint {
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Digest:   configDigest(d.cfg.Dests, d.cfg.Probe),
		Round:    d.round,
		Shed:     d.shed,
		Restarts: d.restarts,
		Stalls:   d.stalls,
		Panics:   d.panics,
		EventSeq: d.events.seq(),
		Acc:      d.acc.State(),
		Dests:    make([]DestState, len(d.sched.dests)),
	}
	for i, ds := range d.sched.dests {
		ck.Dests[i] = DestState{
			NextDue:     ds.nextDue,
			Seen:        ds.seen,
			ParisFP:     ds.parisFP,
			ClassicFP:   ds.classicFP,
			ConsecFails: ds.consecFails,
			Quarantined: ds.quarantined,
			HintParis:   ds.hints.Paris,
			HintClassic: ds.hints.Classic,
			Pairs:       ds.pairs,
			ShedStreak:  ds.shedStreak,
		}
	}
	if d.cfg.TransportState != nil {
		ck.Transport = d.cfg.TransportState()
	}
	return ck
}

// Save writes the checkpoint atomically (temp file + fsync + rename through
// atomicio.Write), so a kill mid-write leaves the previous checkpoint
// intact. The file is streamed, not marshaled: the small fields and the
// Dests table are encoded here, the accumulator by measure's checkpoint
// encoder, and the bytes are exactly json.Marshal's.
func (ck *Checkpoint) Save(path string) error {
	return atomicio.Write(path, ck.encode)
}

// encode streams the checkpoint's JSON encoding to w.
func (ck *Checkpoint) encode(w io.Writer) error {
	b := make([]byte, 0, 64<<10)
	b = appendInt(b, `{"Version":`, int64(ck.Version))
	b = append(b, `,"Digest":`...)
	b = strconv.AppendUint(b, ck.Digest, 10)
	b = appendInt(b, `,"Round":`, ck.Round)
	b = appendInt(b, `,"Shed":`, ck.Shed)
	b = appendInt(b, `,"Restarts":`, ck.Restarts)
	b = appendInt(b, `,"Stalls":`, ck.Stalls)
	b = appendInt(b, `,"Panics":`, ck.Panics)
	b = appendInt(b, `,"EventSeq":`, ck.EventSeq)
	b = append(b, `,"Acc":`...)
	b, err := measure.WriteAccState(w, b, &ck.Acc)
	if err != nil {
		return err
	}
	b = append(b, `,"Dests":`...)
	b = measure.AppendList(b, ck.Dests, appendDestState)
	if len(ck.Transport) > 0 {
		b = append(b, `,"Transport":`...)
		if b, err = measure.AppendRawJSON(b, ck.Transport); err != nil {
			return err
		}
	}
	_, err = w.Write(append(b, '}'))
	return err
}

// appendDestState encodes one scheduler entry the way json.Marshal does:
// NextDue always, every omitempty field only when non-zero.
func appendDestState(b []byte, st DestState) []byte {
	b = appendInt(b, `{"NextDue":`, st.NextDue)
	if st.Seen {
		b = append(b, `,"Seen":true`...)
	}
	if st.ParisFP != 0 {
		b = append(b, `,"ParisFP":`...)
		b = strconv.AppendUint(b, st.ParisFP, 10)
	}
	if st.ClassicFP != 0 {
		b = append(b, `,"ClassicFP":`...)
		b = strconv.AppendUint(b, st.ClassicFP, 10)
	}
	if st.ConsecFails != 0 {
		b = appendInt(b, `,"ConsecFails":`, int64(st.ConsecFails))
	}
	if st.Quarantined {
		b = append(b, `,"Quarantined":true`...)
	}
	if st.HintParis != 0 {
		b = appendInt(b, `,"HintParis":`, int64(st.HintParis))
	}
	if st.HintClassic != 0 {
		b = appendInt(b, `,"HintClassic":`, int64(st.HintClassic))
	}
	if st.Pairs != 0 {
		b = appendInt(b, `,"Pairs":`, st.Pairs)
	}
	if st.ShedStreak != 0 {
		b = appendInt(b, `,"ShedStreak":`, int64(st.ShedStreak))
	}
	return append(b, '}')
}

// appendInt appends a field name and its integer value.
func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// LoadCheckpoint reads and decodes a daemon checkpoint. A missing file is
// (nil, nil): the caller starts fresh.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("daemon: decode checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("daemon: checkpoint %s has version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// recover restores the daemon from the checkpoint at path, if any. A
// checkpoint that fails to decode or restore is moved aside to path+
// ".corrupt" and the daemon starts fresh — an always-on service should come
// back measuring, not refuse to boot over a torn file the atomic writer
// already protects against. A checkpoint for a different destination list
// or probing shape is a hard error: silently discarding real prior
// statistics over a config edit is worse than making the operator pass
// -fresh.
func (d *Daemon) recover(path string) error {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	if ck == nil {
		return nil
	}
	if dg := configDigest(d.cfg.Dests, d.cfg.Probe); ck.Digest != dg {
		return fmt.Errorf("daemon: checkpoint digest %#x does not match configuration %#x (pass FreshStart to discard)", ck.Digest, dg)
	}
	if len(ck.Dests) != len(d.cfg.Dests) {
		return fmt.Errorf("daemon: checkpoint has %d destinations, configuration %d", len(ck.Dests), len(d.cfg.Dests))
	}
	acc, err := measure.RestoreAccumulator(ck.Acc)
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	d.acc = acc
	d.round = ck.Round
	d.shed = ck.Shed
	d.restarts = ck.Restarts
	d.stalls = ck.Stalls
	d.panics = ck.Panics
	d.events.setSeq(ck.EventSeq)
	for i, st := range ck.Dests {
		ds := d.sched.dests[i]
		ds.nextDue = st.NextDue
		ds.seen = st.Seen
		ds.parisFP = st.ParisFP
		ds.classicFP = st.ClassicFP
		ds.consecFails = st.ConsecFails
		ds.quarantined = st.Quarantined
		ds.hints = measure.PathHints{Paris: st.HintParis, Classic: st.HintClassic}
		ds.pairs = st.Pairs
		ds.shedStreak = st.ShedStreak
	}
	if d.cfg.RestoreTransport != nil && len(ck.Transport) > 0 {
		if err := d.cfg.RestoreTransport(ck.Transport); err != nil {
			return fmt.Errorf("daemon: restore transport state: %w", err)
		}
	}
	d.recovered = true
	d.recoveredAt = ck.Round
	return nil
}

// quarantineCorrupt moves a bad checkpoint aside and reports a fresh start.
func (d *Daemon) quarantineCorrupt(path string, cause error) error {
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("daemon: quarantine corrupt checkpoint (%v): %w", cause, err)
	}
	d.events.publish(Event{Type: EventRecovered,
		Detail: fmt.Sprintf("checkpoint unusable (%v); moved to %s.corrupt, starting fresh", cause, path)})
	return nil
}
