package timeseries

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// jsonlLine is one line of the -telemetry-out stream: exactly one of
// the payload fields is set, named by Type ("sample" or "anomaly").
// Concatenating the streams of a scan and its resumed continuation
// yields a valid stream, which is what makes -telemetry-out append-safe
// alongside checkpoints.
type jsonlLine struct {
	Type    string   `json:"type"`
	Sample  *Sample  `json:"sample,omitempty"`
	Anomaly *Anomaly `json:"anomaly,omitempty"`
}

// jsonlWriter streams samples and anomalies as they are appended. Write
// errors are sticky and surfaced at Close — telemetry I/O must never
// interrupt a scan.
type jsonlWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// StreamJSONL attaches w as the store's live JSONL stream: every
// subsequent Append writes one sample line (plus one line per anomaly
// fired). Call CloseStream when the scan ends to flush and collect any
// sticky write error.
func (st *Store) StreamJSONL(w io.Writer) {
	bw := bufio.NewWriter(w)
	jw := &jsonlWriter{bw: bw, enc: json.NewEncoder(bw)}
	st.mu.Lock()
	st.stream = jw
	st.mu.Unlock()
}

// CloseStream detaches and flushes the JSONL stream, returning the
// first write error encountered (nil when no stream was attached).
func (st *Store) CloseStream() error {
	st.mu.Lock()
	jw := st.stream
	st.stream = nil
	st.mu.Unlock()
	if jw == nil {
		return nil
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.bw.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	return jw.err
}

func (w *jsonlWriter) writeSample(s *Sample) {
	w.write(jsonlLine{Type: "sample", Sample: s})
}

func (w *jsonlWriter) writeAnomaly(a *Anomaly) {
	w.write(jsonlLine{Type: "anomaly", Anomaly: a})
}

func (w *jsonlWriter) write(l jsonlLine) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(l); err != nil {
		w.err = err
	}
}

// ReadJSONL parses a telemetry stream back into samples and anomalies.
// Unknown line types are an error (the stream is versioned by shape).
func ReadJSONL(r io.Reader) (samples []Sample, anomalies []Anomaly, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			return nil, nil, fmt.Errorf("timeseries: line %d: %v", lineNo, err)
		}
		switch l.Type {
		case "sample":
			if l.Sample == nil {
				return nil, nil, fmt.Errorf("timeseries: line %d: sample line without sample", lineNo)
			}
			samples = append(samples, *l.Sample)
		case "anomaly":
			if l.Anomaly == nil {
				return nil, nil, fmt.Errorf("timeseries: line %d: anomaly line without anomaly", lineNo)
			}
			anomalies = append(anomalies, *l.Anomaly)
		default:
			return nil, nil, fmt.Errorf("timeseries: line %d: unknown type %q", lineNo, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return samples, anomalies, nil
}

// VerifyStream checks the invariants every -telemetry-out stream must
// hold: at least one sample for every shard in [0, wantShards) (when
// wantShards > 0), per-shard interval indexes strictly increasing
// within each run segment, non-negative counter deltas, and — when
// requireAnomaly is set — at least one anomaly line.
func VerifyStream(samples []Sample, anomalies []Anomaly, wantShards int, requireAnomaly bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("timeseries: stream has no samples")
	}
	seen := make(map[int]int)
	lastIdx := make(map[int]uint64)
	for i := range samples {
		s := &samples[i]
		seen[s.Shard]++
		if prev, ok := lastIdx[s.Shard]; ok && s.Index != 0 && s.Index <= prev {
			return fmt.Errorf("timeseries: shard %d interval index went %d -> %d", s.Shard, prev, s.Index)
		}
		lastIdx[s.Shard] = s.Index
		if s.EndNS < s.StartNS {
			return fmt.Errorf("timeseries: shard %d index %d spans [%d, %d]", s.Shard, s.Index, s.StartNS, s.EndNS)
		}
		for name, v := range s.Counters {
			if v < 0 {
				return fmt.Errorf("timeseries: shard %d index %d counter %s went negative (%d)", s.Shard, s.Index, name, v)
			}
		}
	}
	for shard := 0; shard < wantShards; shard++ {
		if seen[shard] == 0 {
			return fmt.Errorf("timeseries: no samples for shard %d (want %d shards)", shard, wantShards)
		}
	}
	if requireAnomaly && len(anomalies) == 0 {
		return fmt.Errorf("timeseries: no anomalies in stream (expected at least one)")
	}
	return nil
}
