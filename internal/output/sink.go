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
	"errors"
	"fmt"
	"io"
	"os"
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

// ErrShortArtifact is returned by OpenFileSink when the file is shorter
// than the splice point: bytes a checkpoint counted as durable are gone.
var ErrShortArtifact = errors.New("output: artifact is shorter than its recorded length")

// FileSink is a file-format sink that owns its file; see OpenFileSink.
type FileSink struct {
	Sink   // the codec, writing into the file through Write
	f      *os.File
	cutAt  int64 // splice point still to cut the file back to; -1 once cut
	size   int64 // file length at the last Flush
	stream bool  // not a regular file: only appended to, length unknown
}

// OpenFileSink opens path as a scan artifact spliced at byte at — the
// one place a scan continues a partially written file. With at == 0 the
// file is truncated and the codec writes its preamble (CSV header, IWB1
// magic). With at > 0 the codec appends without one, and everything
// past at (the torn tail of a crash between checkpoints) is cut at the
// first write or flush, so a resume rejected before any output leaves
// the file untouched. Close flushes, fsyncs and closes the file. A
// non-regular file (/dev/null, a pipe) is a stream: only appended to,
// its Size unknown.
func OpenFileSink(path, format string, at int64) (*FileSink, error) {
	s := &FileSink{cutAt: at, size: at}
	var err error
	if s.Sink, err = NewFileSink(s, format, at > 0); err != nil {
		return nil, err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if at == 0 {
		flags |= os.O_TRUNC
	}
	if s.f, err = os.OpenFile(path, flags, 0o644); err != nil {
		return nil, err
	}
	fi, err := s.f.Stat()
	switch {
	case err != nil:
	case !fi.Mode().IsRegular():
		s.stream, s.cutAt = true, -1
	case fi.Size() < at:
		err = fmt.Errorf("%w: %s has %d bytes, want at least %d", ErrShortArtifact, path, fi.Size(), at)
	}
	if err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// Write is the codec's path into the file: it cuts the file back to the
// splice point before the first byte lands.
func (s *FileSink) Write(p []byte) (int, error) {
	if err := s.cut(); err != nil {
		return 0, err
	}
	return s.f.Write(p)
}

// Flush cuts the file back to the splice point even when no record
// came, flushes the codec into it and takes the file's length.
func (s *FileSink) Flush() error {
	if err := s.cut(); err != nil {
		return err
	}
	if err := s.Sink.Flush(); err != nil || s.stream {
		return err
	}
	var err error
	s.size, err = s.f.Seek(0, io.SeekEnd)
	return err
}

// Close flushes, fsyncs and closes the file.
func (s *FileSink) Close() error {
	err := s.Flush()
	if serr := s.f.Sync(); err == nil && !s.stream {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size returns the file's byte length as of the last Flush.
func (s *FileSink) Size() (int64, bool) { return s.size, !s.stream }

func (s *FileSink) cut() (err error) {
	if s.cutAt >= 0 {
		err, s.cutAt = s.f.Truncate(s.cutAt), -1
	}
	return err
}
