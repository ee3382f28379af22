package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/anomaly"
	"repro/internal/tracer"
)

// This file is the checkpoint encoder. It writes exactly the bytes
// encoding/json's Marshal writes for the checkpoint types — same field
// order, same omitempty rules, same map-key order, same string escaping —
// without reflection, and streams them: the caller's buffer is handed to
// the writer after every destination, so a 30 MB checkpoint never exists
// as one slice. Decoding stays json.Unmarshal, which is why the output has
// to match Marshal byte for byte: the schema is Marshal's, and the tests
// (including FuzzCheckpointEncode) hold this encoder to it.

// encode streams the campaign checkpoint to w.
func (ck *Checkpoint) encode(w io.Writer) error {
	b := make([]byte, 0, 64<<10)
	b = appendInt(b, `{"Version":`, int64(ck.Version))
	b = append(b, `,"Digest":`...)
	b = strconv.AppendUint(b, ck.Digest, 10)
	b = appendInt(b, `,"NextRound":`, int64(ck.NextRound))
	b = append(b, `,"Health":`...)
	b = AppendList(b, ck.Health, appendHealth)
	if len(ck.ParisHint) > 0 {
		b = append(b, `,"ParisHint":`...)
		b = AppendList(b, ck.ParisHint, appendIntElem)
	}
	if len(ck.ClasHint) > 0 {
		b = append(b, `,"ClasHint":`...)
		b = AppendList(b, ck.ClasHint, appendIntElem)
	}
	var err error
	if len(ck.Transport) > 0 {
		b = append(b, `,"Transport":`...)
		if b, err = AppendRawJSON(b, ck.Transport); err != nil {
			return err
		}
	}
	b = append(b, `,"Workers":`...)
	if ck.Workers == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range ck.Workers {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = WriteAccState(w, b, &ck.Workers[i]); err != nil {
				return err
			}
		}
		b = append(b, ']')
	}
	_, err = w.Write(append(b, '}'))
	return err
}

// WriteAccState appends st's JSON encoding — the bytes json.Marshal
// produces for it — to b. After every destination it writes b to w and
// empties it, so the buffer never holds more than one destination; it
// returns b holding the unwritten tail, for the caller to finish and write.
func WriteAccState(w io.Writer, b []byte, st *AccState) ([]byte, error) {
	b = appendInt(b, `{"Routes":`, int64(st.Routes))
	b = appendInt(b, `,"Reached":`, int64(st.Reached))
	b = appendInt(b, `,"Responses":`, int64(st.Responses))
	b = appendInt(b, `,"MidStars":`, int64(st.MidStars))
	b = appendInt(b, `,"RoutesWithLoop":`, int64(st.RoutesWithLoop))
	b = appendInt(b, `,"LoopInstances":`, int64(st.LoopInstances))
	b = appendInt(b, `,"ParisOnly":`, int64(st.ParisOnly))
	b = appendInt(b, `,"RoutesWithCycle":`, int64(st.RoutesWithCycle))
	b = appendInt(b, `,"CycleInstances":`, int64(st.CycleInstances))
	b = appendInt(b, `,"Failed":`, int64(st.Failed))
	b = appendInt(b, `,"Skipped":`, int64(st.Skipped))
	if st.RTTSamples != 0 {
		b = appendInt(b, `,"RTTSamples":`, int64(st.RTTSamples))
	}
	if st.RTTSum != 0 {
		b = appendInt(b, `,"RTTSum":`, st.RTTSum)
	}
	if st.RTTMin != 0 {
		b = appendInt(b, `,"RTTMin":`, st.RTTMin)
	}
	if st.RTTMax != 0 {
		b = appendInt(b, `,"RTTMax":`, st.RTTMax)
	}
	b = append(b, `,"LoopByCause":`...)
	b = appendCauses(b, st.LoopByCause)
	b = append(b, `,"CycleByCause":`...)
	b = appendCauses(b, st.CycleByCause)
	b = append(b, `,"Addrs":`...)
	b = AppendList(b, st.Addrs, appendAddr)
	b = append(b, `,"LoopAddrs":`...)
	b = AppendList(b, st.LoopAddrs, appendAddr)
	b = append(b, `,"CycleAddrs":`...)
	b = AppendList(b, st.CycleAddrs, appendAddr)
	if len(st.SkippedDests) > 0 {
		b = append(b, `,"SkippedDests":`...)
		b = AppendList(b, st.SkippedDests, appendAddr)
	}
	b = append(b, `,"Dests":`...)
	if st.Dests == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range st.Dests {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDest(b, &st.Dests[i])
			var err error
			if b, err = writeJSON(w, b); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// writeJSON drains b into w and returns b emptied for reuse.
func writeJSON(w io.Writer, b []byte) ([]byte, error) {
	_, err := w.Write(b)
	return b[:0], err
}

// AppendList encodes xs as a JSON array, each element appended by elem, or
// as null for a nil slice: json.Marshal's rule.
func AppendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

// appendInt appends a field name and its integer value.
func appendInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendIntElem(b []byte, x int) []byte { return strconv.AppendInt(b, int64(x), 10) }

func appendHealth(b []byte, h HealthState) []byte {
	b = append(b, '{')
	if h.ConsecFails != 0 {
		b = appendInt(b, `"ConsecFails":`, int64(h.ConsecFails))
	}
	if h.Quarantined {
		if h.ConsecFails != 0 {
			b = append(b, ',')
		}
		b = append(b, `"Quarantined":true`...)
	}
	return append(b, '}')
}

func appendDest(b []byte, dc *DestCheckpoint) []byte {
	b = append(b, `{"Dest":`...)
	b = appendAddr(b, dc.Dest)
	if dc.SawLoop {
		b = append(b, `,"SawLoop":true`...)
	}
	if dc.SawCycle {
		b = append(b, `,"SawCycle":true`...)
	}
	b = append(b, `,"Routes":`...)
	b = AppendList(b, dc.Routes, appendRouteCheckpoint)
	if len(dc.LoopSigs) > 0 {
		b = append(b, `,"LoopSigs":`...)
		b = AppendList(b, dc.LoopSigs, appendSig)
	}
	if len(dc.CycleSigs) > 0 {
		b = append(b, `,"CycleSigs":`...)
		b = AppendList(b, dc.CycleSigs, appendSig)
	}
	return append(b, '}')
}

func appendSig(b []byte, sg SigCheckpoint) []byte {
	b = append(b, `{"Addr":`...)
	b = appendAddr(b, sg.Addr)
	b = appendInt(b, `,"LastRound":`, int64(sg.LastRound))
	b = appendInt(b, `,"Rounds":`, int64(sg.Rounds))
	return append(b, '}')
}

func appendRouteCheckpoint(b []byte, rc RouteCheckpoint) []byte {
	b = append(b, '{')
	if rc.Classic {
		b = append(b, `"Classic":true,`...)
	}
	b = append(b, `"Route":`...)
	return append(appendRoute(b, rc.Route), '}')
}

func appendRoute(b []byte, r *tracer.Route) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"Dest":`...)
	b = appendAddr(b, r.Dest)
	b = append(b, `,"Source":`...)
	b = appendAddr(b, r.Source)
	b = append(b, `,"Hops":`...)
	b = appendHops(b, r.Hops)
	b = append(b, `,"All":`...)
	b = AppendList(b, r.All, appendHops)
	b = appendInt(b, `,"Halt":`, int64(r.Halt))
	return append(b, '}')
}

func appendHops(b []byte, hops []tracer.Hop) []byte { return AppendList(b, hops, appendHop) }

func appendHop(b []byte, h tracer.Hop) []byte {
	b = appendInt(b, `{"TTL":`, int64(h.TTL))
	b = append(b, `,"Addr":`...)
	b = appendAddr(b, h.Addr)
	b = appendInt(b, `,"RTT":`, int64(h.RTT))
	b = appendInt(b, `,"Kind":`, int64(h.Kind))
	b = appendInt(b, `,"ProbeTTL":`, int64(h.ProbeTTL))
	b = appendInt(b, `,"RespTTL":`, int64(h.RespTTL))
	b = appendInt(b, `,"IPID":`, int64(h.IPID))
	b = append(b, `,"Mismatched":`...)
	b = strconv.AppendBool(b, h.Mismatched)
	return append(b, '}')
}

// appendCauses encodes a cause tally the way encoding/json encodes an
// integer-keyed map: keys in decimal, sorted as strings ("10" before "2").
func appendCauses(b []byte, m map[anomaly.Cause]int) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	type entry struct {
		key string
		n   int
	}
	es := make([]entry, 0, len(m))
	for c, n := range m {
		es = append(es, entry{strconv.Itoa(int(c)), n})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	b = append(b, '{')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, e.key...)
		b = appendInt(b, `":`, int64(e.n))
	}
	return append(b, '}')
}

// appendAddr encodes an address as its MarshalText string: "" for the
// invalid address of a star hop. Only an IPv6 zone can carry characters
// that need escaping.
func appendAddr(b []byte, a netip.Addr) []byte {
	if a.Zone() != "" {
		return appendString(b, string(a.AppendTo(nil)))
	}
	b = append(b, '"')
	b = a.AppendTo(b)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendString encodes s as a JSON string with encoding/json's default
// escaping: control bytes, quote and backslash, HTML's <, > and &, invalid
// UTF-8 as U+FFFD, and U+2028/U+2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendRawJSON appends an opaque JSON payload the way encoding/json embeds
// a json.RawMessage: compacted, with HTML characters escaped. A payload
// that is not valid JSON is an error, as it is for json.Marshal.
func AppendRawJSON(b []byte, raw json.RawMessage) ([]byte, error) {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return b, fmt.Errorf("measure: encoding transport state: %w", err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return append(b, escaped.Bytes()...), nil
}
