package main

import (
	"net/netip"
	"time"

	"repro/internal/tracer"
	"repro/internal/tracer/live"
)

// record adds one call carrying probes probes, stars of them unanswered,
// that started at start.
func (s *seam) record(start time.Time, probes, stars int) {
	s.busyNs.Add(int64(time.Since(start)))
	s.calls.Add(1)
	s.probes.Add(int64(probes))
	s.stars.Add(int64(stars))
}

// timedTransport is the transport seam: it times every batch the campaign
// or daemon exchanges through the wrapped transport.
type timedTransport struct {
	inner tracer.BatchTransport
	s     *seam
}

// timed wraps tp when it batches (every transport the workloads use does).
func timed(tp tracer.Transport, s *seam) tracer.Transport {
	bt, ok := tp.(tracer.BatchTransport)
	if !ok {
		return tp
	}
	return &timedTransport{inner: bt, s: s}
}

func (t *timedTransport) Source() netip.Addr { return t.inner.Source() }

func (t *timedTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	start := time.Now()
	resp, rtt, ok := t.inner.Exchange(probe)
	stars := 0
	if !ok {
		stars = 1
	}
	t.s.record(start, 1, stars)
	return resp, rtt, ok
}

func (t *timedTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	start := time.Now()
	t.inner.ExchangeBatch(probes, out)
	stars := 0
	for i := range probes {
		if !out[i].OK && out[i].Err == nil {
			stars++
		}
	}
	t.s.record(start, len(probes), stars)
}

// timedSink is the capture seam: it times every record the mux hands the
// pcap sink.
type timedSink struct {
	inner live.CaptureSink
	s     *seam
}

func (t timedSink) CaptureOutbound(ts time.Time, pkt []byte) {
	start := time.Now()
	t.inner.CaptureOutbound(ts, pkt)
	t.s.record(start, 1, 0)
}

func (t timedSink) CaptureInbound(ts time.Time, pkt []byte) {
	start := time.Now()
	t.inner.CaptureInbound(ts, pkt)
	t.s.record(start, 1, 0)
}

// timedRespond is the SimConn responder seam: it times netsim answering
// each probe put on the simulated wire.
func timedRespond(respond func([]byte) ([]byte, bool), s *seam) func([]byte) ([]byte, bool) {
	return func(probe []byte) ([]byte, bool) {
		start := time.Now()
		resp, ok := respond(probe)
		stars := 0
		if !ok {
			stars = 1
		}
		s.record(start, 1, stars)
		return resp, ok
	}
}
