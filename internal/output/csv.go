package output

import (
	"encoding/csv"
	"io"

	"iwscan/internal/analysis"
)

// CSVSink streams records as CSV rows in the same column layout as
// analysis.WriteCSV, writing the header lazily before the first record
// so an empty scan still produces a well-formed file on Flush.
type CSVSink struct {
	cw        *csv.Writer
	needsHead bool
}

// NewCSVSink writes CSV with a header row to w.
func NewCSVSink(w io.Writer) *CSVSink { return newCSVSink(w, true) }

func newCSVSink(w io.Writer, header bool) *CSVSink {
	return &CSVSink{cw: csv.NewWriter(w), needsHead: header}
}

func (s *CSVSink) header() error {
	if !s.needsHead {
		return nil
	}
	s.needsHead = false
	return s.cw.Write(analysis.CSVHeader())
}

// WriteRecord appends one CSV row.
func (s *CSVSink) WriteRecord(r *analysis.Record) error {
	if err := s.header(); err != nil {
		return err
	}
	return s.cw.Write(r.CSVRow())
}

// Flush writes buffered rows (and the header, if nothing was written
// yet) to the underlying writer.
func (s *CSVSink) Flush() error {
	if err := s.header(); err != nil {
		return err
	}
	s.cw.Flush()
	return s.cw.Error()
}

// Close flushes; the underlying writer stays open.
func (s *CSVSink) Close() error { return s.Flush() }
