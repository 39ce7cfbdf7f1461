// Package core implements the paper's contribution: inference of a
// remote host's TCP initial congestion window (IW) without prior
// knowledge of the host, over HTTP or TLS (§3 of the paper).
//
// The method (Figure 1): complete a TCP handshake announcing a small MSS
// (64 B) and a large receive window, send a request that triggers a
// response, then withhold acknowledgments. The server sends up to its IW
// and stalls; its retransmission timer eventually re-sends the first
// segment, which the scanner detects by sequence-number accounting. The
// bytes and segments received before that retransmission are the IW
// estimate. A verification ACK covering all received data, with a
// receive window of only two segments, then distinguishes hosts that
// were truly IW-limited (they release more data) from hosts that simply
// ran out of data (they send a FIN or stay silent).
package core

import (
	"fmt"

	"iwscan/internal/wire"
)

// Outcome classifies a single probe (one TCP connection).
type Outcome int

// Probe outcomes, in order of decreasing information.
const (
	// OutcomeSuccess means the IW estimate is trustworthy: a
	// retransmission bounded the burst and the verification ACK released
	// further data, proving the host was IW-limited.
	OutcomeSuccess Outcome = iota
	// OutcomeFewData means the host stopped sending before its IW was
	// provably reached (FIN received, or silence after the verification
	// ACK); Segments is only a lower bound.
	OutcomeFewData
	// OutcomeNoData means the connection was established but no payload
	// arrived at all (e.g. TLS hosts that require SNI).
	OutcomeNoData
	// OutcomeError covers resets, timeouts without retransmission
	// detection, and probes with unfilled sequence gaps (lost packets
	// make the byte count untrustworthy).
	OutcomeError
	// OutcomeUnreachable means the handshake never completed.
	OutcomeUnreachable
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeFewData:
		return "few-data"
	case OutcomeNoData:
		return "no-data"
	case OutcomeError:
		return "error"
	case OutcomeUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// ProbeResult is the outcome of a single connection probe.
type ProbeResult struct {
	Outcome  Outcome
	Segments int // distinct data segments received before the retransmission
	Bytes    int // distinct payload bytes received before the retransmission
	MaxSeg   int // largest observed segment (the effective MSS in use)
	SawFIN   bool
	Reorder  bool // a sequence hole was later filled (reordering)
	Gap      bool // a sequence hole remained (loss)
	Err      string
}

// Taxon returns the probe's terminal outcome taxon for telemetry: the
// outcome class, refined by the failure detail when one was recorded —
// e.g. "success", "error:loss-gap", "unreachable:syn-timeout". The
// taxa name the registry counters core.probe.outcome.<taxon>, so the
// failure classes §3.4 argues about are countable per scan.
func (r *ProbeResult) Taxon() string {
	if r.Err == "" {
		return r.Outcome.String()
	}
	return r.Outcome.String() + ":" + r.Err
}

// IWSegments converts the byte count into segments of the observed
// maximum segment size, rounding up for a partial trailing segment.
// This is the paper's estimate: announced MSS 64, but "monitor the
// actually used segment size and use the observed maximum".
func (r *ProbeResult) IWSegments() int {
	if r.MaxSeg == 0 {
		return 0
	}
	return (r.Bytes + r.MaxSeg - 1) / r.MaxSeg
}

// LowerBoundSegments is the Table-2 lower bound for few-data hosts: the
// number of full segments worth of data the host managed to send. A
// host that sent any data at all proves at least IW 1.
func (r *ProbeResult) LowerBoundSegments() int {
	if r.MaxSeg == 0 {
		return 0
	}
	b := r.Bytes / r.MaxSeg
	if b == 0 && r.Bytes > 0 {
		b = 1
	}
	return b
}

// MSSResult aggregates the repeated probes for one announced MSS.
type MSSResult struct {
	MSS      int
	Outcome  Outcome
	Segments int // agreed IW in segments (success) or best lower bound
	Bytes    int // byte count of the agreeing probes
	MaxSeg   int
	Probes   []ProbeResult
}

// TargetResult is the final per-host verdict combining all probes.
type TargetResult struct {
	Addr    wire.Addr
	Port    uint16
	PerMSS  []MSSResult
	Outcome Outcome // classification at the primary (first) MSS
	// IW is the estimated initial window in segments at the primary MSS
	// (valid when Outcome is OutcomeSuccess).
	IW int
	// LowerBound is the Table-2 style bound when Outcome is
	// OutcomeFewData.
	LowerBound int
	// ByteLimited reports that the host halved its segment count when
	// the announced MSS doubled, i.e. it configures its IW in bytes
	// (§4.2). Only meaningful when both MSS scans succeeded.
	ByteLimited bool
	// IWBytes is the byte-based IW for byte-limited hosts.
	IWBytes int
}

// aggregateMSS applies the paper's rule: a target's probes for one MSS
// are successful when at least two out of three yield the same IW and
// that value is the maximum of all three (tail loss can only shrink an
// estimate, so the maximum is the trustworthy one).
func aggregateMSS(mss int, probes []ProbeResult) MSSResult {
	res := MSSResult{MSS: mss, Probes: probes, Outcome: OutcomeError}
	// Count agreement among successful probes.
	counts := make(map[int]int)
	maxVal := 0
	for i := range probes {
		p := &probes[i]
		if p.Outcome == OutcomeSuccess {
			v := p.IWSegments()
			counts[v]++
			if v > maxVal {
				maxVal = v
			}
		}
	}
	// The paper's rule: at least two of three probes agree on the value,
	// and the agreed value is the maximum seen. A single-probe scan
	// (Repeats=1) trusts its one success.
	required := 2
	if len(probes) < 2 {
		required = 1
	}
	for v, c := range counts {
		if c >= required && v == maxVal {
			res.Outcome = OutcomeSuccess
			res.Segments = v
			for i := range probes {
				if probes[i].Outcome == OutcomeSuccess && probes[i].IWSegments() == v {
					res.Bytes = probes[i].Bytes
					res.MaxSeg = probes[i].MaxSeg
					break
				}
			}
			return res
		}
	}
	// No success agreement: fall back to the most informative class. An
	// unconfirmed success still proves a lower bound, so mixed outcomes
	// degrade to few-data rather than error.
	best := OutcomeUnreachable
	bound := 0
	sawData := false
	for i := range probes {
		p := &probes[i]
		if p.Outcome < best {
			best = p.Outcome
		}
		b := p.LowerBoundSegments()
		if p.Outcome == OutcomeSuccess {
			b = p.IWSegments()
		}
		if b > bound {
			bound = b
		}
		if p.Bytes > 0 {
			sawData = true
			if p.MaxSeg > res.MaxSeg {
				res.MaxSeg = p.MaxSeg
			}
			if p.Bytes > res.Bytes {
				res.Bytes = p.Bytes
			}
		}
	}
	switch best {
	case OutcomeSuccess, OutcomeFewData, OutcomeNoData:
		if sawData {
			res.Outcome = OutcomeFewData
			res.Segments = bound
		} else {
			res.Outcome = OutcomeNoData
		}
	default:
		res.Outcome = best
	}
	return res
}

// finalizeTarget combines per-MSS results into the target verdict.
func finalizeTarget(addr wire.Addr, port uint16, perMSS []MSSResult) *TargetResult {
	tr := &TargetResult{Addr: addr, Port: port, PerMSS: perMSS}
	if len(perMSS) == 0 {
		tr.Outcome = OutcomeUnreachable
		return tr
	}
	primary := perMSS[0]
	tr.Outcome = primary.Outcome
	switch primary.Outcome {
	case OutcomeSuccess:
		tr.IW = primary.Segments
	case OutcomeFewData:
		tr.LowerBound = primary.Segments
	}
	// Byte-limit detection needs two successful MSS runs where the MSS
	// actually doubled on the wire (hosts that override the announced
	// MSS, like Windows' 536 fallback, are excluded by the MaxSeg check).
	if len(perMSS) >= 2 {
		a, b := perMSS[0], perMSS[1]
		if a.Outcome == OutcomeSuccess && b.Outcome == OutcomeSuccess &&
			a.MaxSeg > 0 && b.MaxSeg == 2*a.MaxSeg &&
			a.Segments >= 2 && a.Segments == 2*b.Segments {
			tr.ByteLimited = true
			tr.IWBytes = a.Segments * a.MaxSeg
		}
	}
	return tr
}
