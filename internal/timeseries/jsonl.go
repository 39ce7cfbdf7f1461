package timeseries

import (
	"encoding/json"
	"fmt"
	"io"

	"iwscan/internal/output"
)

// jsonlLine is one line of the -telemetry-out stream: exactly one of
// the payload fields is set, named by Type ("sample" or "anomaly").
// Under -resume the stream is spliced at the checkpoint like -out, and
// the resumed sampler continues the checkpoint's clock and interval
// indexes, so the file stays one valid stream across any number of
// resumes.
type jsonlLine struct {
	Type    string   `json:"type"`
	Sample  *Sample  `json:"sample,omitempty"`
	Anomaly *Anomaly `json:"anomaly,omitempty"`
}

// jsonlWriter streams samples and anomalies as they are appended, one
// Write per line (so a checkpoint reads the stream's length with no
// flush), always under the store's lock. Write errors are sticky and
// surfaced at CloseStream — telemetry I/O must never interrupt a scan.
type jsonlWriter struct {
	w   io.Writer
	enc *json.Encoder
	err error
}

// StreamJSONL attaches w as the store's live JSONL stream: every
// subsequent Append writes one sample line (plus one line per anomaly
// fired). Call CloseStream when the scan ends to collect any sticky
// write error.
func (st *Store) StreamJSONL(w io.Writer) {
	st.mu.Lock()
	st.stream = &jsonlWriter{w: w, enc: json.NewEncoder(w)}
	st.mu.Unlock()
}

// StreamSize returns the attached stream's byte length when its writer
// knows it (an output.SplicedFile): the splice point a checkpoint
// records for -telemetry-out.
func (st *Store) StreamSize() (n int64, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.stream != nil {
		if sz, isSizer := st.stream.w.(output.Sizer); isSizer {
			return sz.Size()
		}
	}
	return 0, false
}

// CloseStream detaches the JSONL stream, returning the first write
// error encountered (nil when no stream was attached).
func (st *Store) CloseStream() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	jw := st.stream
	st.stream = nil
	if jw == nil {
		return nil
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
	if w.err == nil {
		w.err = w.enc.Encode(l)
	}
}

// ReadJSONL parses a telemetry stream back into samples and anomalies
// through output.ReadLines, so a torn final line (a crash mid-append)
// is dropped. Unknown line types are an error (the stream is versioned
// by shape).
func ReadJSONL(r io.Reader) (samples []Sample, anomalies []Anomaly, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	_, err = output.ReadLines(data, func(line []byte) error {
		var l jsonlLine
		if err := json.Unmarshal(line, &l); err != nil {
			return err
		}
		switch {
		case l.Type == "sample" && l.Sample != nil:
			samples = append(samples, *l.Sample)
		case l.Type == "anomaly" && l.Anomaly != nil:
			anomalies = append(anomalies, *l.Anomaly)
		default:
			return fmt.Errorf("%q line: unknown type or no payload", l.Type)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("timeseries: %w", err)
	}
	return samples, anomalies, nil
}

// VerifyStream checks the invariants every -telemetry-out stream must
// hold: at least one sample for every shard in [0, wantShards) (when
// wantShards > 0), per-shard interval indexes strictly increasing and
// intervals never overlapping (across resumed segments too),
// non-negative counter deltas, and — when requireAnomaly is set — at
// least one anomaly line.
func VerifyStream(samples []Sample, anomalies []Anomaly, wantShards int, requireAnomaly bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("timeseries: stream has no samples")
	}
	last := make(map[int]*Sample)
	for i := range samples {
		s := &samples[i]
		if p := last[s.Shard]; p != nil && (s.Index <= p.Index || s.StartNS < p.EndNS) {
			return fmt.Errorf("timeseries: shard %d went from index %d [%d, %d) to index %d [%d, %d)",
				s.Shard, p.Index, p.StartNS, p.EndNS, s.Index, s.StartNS, s.EndNS)
		}
		last[s.Shard] = s
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
		if last[shard] == nil {
			return fmt.Errorf("timeseries: no samples for shard %d (want %d shards)", shard, wantShards)
		}
	}
	if requireAnomaly && len(anomalies) == 0 {
		return fmt.Errorf("timeseries: no anomalies in stream (expected at least one)")
	}
	return nil
}
