// Package output is the streaming result pipeline: scan records flow
// from the engine into pluggable sinks one at a time, so a scan's
// memory footprint is O(buffer) instead of O(targets). ZMap earned its
// scale with pluggable output modules; this package plays that role
// here. It provides file codecs (CSV, JSONL, a compact length-prefixed
// binary format), an async buffered writer with backpressure, a
// reordering stage that turns out-of-order probe completions back into
// permutation order (the property checkpoint/resume relies on), and a
// merge stage that folds parallel shard streams into one ordered
// output.
package output

import (
	"fmt"
	"io"
	"sync"

	"iwscan/internal/analysis"
)

// Sink consumes scan records one at a time. WriteRecord may buffer;
// Flush forces buffered records down to the underlying writer; Close
// flushes and releases sink resources. Sinks do not close the
// underlying io.Writer — the caller that opened it owns it (and should
// check its Close error; a full disk often only surfaces there).
type Sink interface {
	WriteRecord(r *analysis.Record) error
	Flush() error
	Close() error
}

// MemorySink accumulates records in memory. It preserves the historical
// in-memory scan path: experiment drivers that want the whole record
// set (tables, figures) read Records after the scan.
type MemorySink struct {
	mu   sync.Mutex
	recs []analysis.Record
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// WriteRecord appends a copy of r.
func (m *MemorySink) WriteRecord(r *analysis.Record) error {
	m.mu.Lock()
	m.recs = append(m.recs, *r)
	m.mu.Unlock()
	return nil
}

// Flush is a no-op.
func (m *MemorySink) Flush() error { return nil }

// Close is a no-op; Records stays readable.
func (m *MemorySink) Close() error { return nil }

// Records returns the accumulated records.
func (m *MemorySink) Records() []analysis.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recs
}

// CountingSink counts records without retaining them, optionally
// forwarding to an inner sink. Tests use it to assert that a streamed
// scan holds O(buffer) — not O(targets) — records in memory.
type CountingSink struct {
	mu    sync.Mutex
	n     int64
	inner Sink
}

// NewCountingSink counts records forwarded to inner (nil = just count).
func NewCountingSink(inner Sink) *CountingSink { return &CountingSink{inner: inner} }

// WriteRecord counts r and forwards it to the inner sink, if any.
func (c *CountingSink) WriteRecord(r *analysis.Record) error {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	if c.inner != nil {
		return c.inner.WriteRecord(r)
	}
	return nil
}

// Flush forwards to the inner sink.
func (c *CountingSink) Flush() error {
	if c.inner != nil {
		return c.inner.Flush()
	}
	return nil
}

// Close forwards to the inner sink.
func (c *CountingSink) Close() error {
	if c.inner != nil {
		return c.inner.Close()
	}
	return nil
}

// Count returns the number of records written so far.
func (c *CountingSink) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// tee fans every record out to all sinks.
type tee struct{ sinks []Sink }

// Tee returns a sink that writes every record to all of the given
// sinks, in order. Flush and Close are forwarded to each; the first
// error wins but every sink still sees the call.
func Tee(sinks ...Sink) Sink { return &tee{sinks: sinks} }

func (t *tee) WriteRecord(r *analysis.Record) error {
	var first error
	for _, s := range t.sinks {
		if err := s.WriteRecord(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *tee) Flush() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t *tee) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteAll streams a record slice through a sink — the bridge from the
// in-memory paths (popular-host scans, existing drivers) to the file
// codecs.
func WriteAll(s Sink, records []analysis.Record) error {
	for i := range records {
		if err := s.WriteRecord(&records[i]); err != nil {
			return err
		}
	}
	return s.Flush()
}

// NewFileSink builds a file-format sink over w: "csv", "jsonl" or
// "bin". With appending set, format preambles (the CSV header row, the
// binary magic) are suppressed so a resumed scan can continue a
// partially written file.
func NewFileSink(w io.Writer, format string, appending bool) (Sink, error) {
	switch format {
	case "csv":
		return newCSVSink(w, !appending), nil
	case "jsonl":
		return NewJSONLSink(w), nil
	case "bin":
		return newBinarySink(w, !appending), nil
	default:
		return nil, fmt.Errorf("output: unknown format %q (want csv, jsonl or bin)", format)
	}
}

// Sizer is implemented by sinks that know the byte length of the file
// they write, as of the last Flush; ok is false for a stream (stdout).
type Sizer interface {
	Size() (n int64, ok bool)
}

// FileSink is a file-format sink over the SplicedFile it owns; see
// OpenFileSink.
type FileSink struct {
	Sink // the codec, writing into the file
	*SplicedFile
}

// OpenFileSink opens path as a scan artifact spliced at byte at (see
// OpenSplicedFile). With at == 0 the codec writes its preamble (CSV
// header, IWB1 magic); with at > 0 it continues without one. An unknown
// format fails before the file is opened.
func OpenFileSink(path, format string, at int64) (*FileSink, error) {
	return openFileSink(path, format, at, at > 0)
}

// AppendFileSink opens path to continue a resumed scan's output where no
// length was recorded because it is a stream (/dev/null, a pipe): only
// appended to, and without a second preamble.
func AppendFileSink(path, format string) (*FileSink, error) {
	return openFileSink(path, format, 0, true)
}

func openFileSink(path, format string, at int64, appending bool) (*FileSink, error) {
	s := &FileSink{SplicedFile: new(SplicedFile)}
	var err error
	if s.Sink, err = NewFileSink(s.SplicedFile, format, appending); err != nil {
		return nil, err
	}
	if err = s.open(path, at); err != nil {
		return nil, err
	}
	return s, nil
}

// Close flushes the codec, then fsyncs and closes the file.
func (s *FileSink) Close() error {
	err := s.Sink.Flush()
	if cerr := s.SplicedFile.Close(); err == nil {
		err = cerr
	}
	return err
}
