package output

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// ErrShortArtifact is returned by OpenSplicedFile when the file is
// shorter than the splice point: bytes a checkpoint counted as durable
// are gone.
var ErrShortArtifact = errors.New("output: artifact is shorter than its recorded length")

// SplicedFile is a file that a checkpoint resumes — the scan's records
// and its telemetry stream alike. It continues at the length the
// checkpoint recorded, and everything past that (the torn tail of a
// crash between checkpoints) is cut at the first write, so a resume
// rejected before any output leaves the file untouched. A non-regular
// file (/dev/null, a pipe) is a stream: only appended to, its Size
// unknown.
type SplicedFile struct {
	f      *os.File
	cutAt  int64 // splice point still to cut the file back to; -1 once cut
	size   int64 // the splice point plus every byte written since
	stream bool
}

// OpenSplicedFile opens path spliced at byte at; at == 0 truncates it.
func OpenSplicedFile(path string, at int64) (*SplicedFile, error) {
	s := new(SplicedFile)
	if err := s.open(path, at); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SplicedFile) open(path string, at int64) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	s.cutAt, s.size = at, at
	if at == 0 {
		flags |= os.O_TRUNC
		s.cutAt = -1
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	switch {
	case err != nil:
	case !fi.Mode().IsRegular():
		s.stream, s.cutAt = true, -1
	case fi.Size() < at:
		err = fmt.Errorf("%w: %s has %d bytes, want at least %d", ErrShortArtifact, path, fi.Size(), at)
	}
	if err != nil {
		f.Close()
		return err
	}
	s.f = f
	return nil
}

// Write cuts the file back to the splice point before the first byte
// lands, then appends p.
func (s *SplicedFile) Write(p []byte) (int, error) {
	if err := s.cut(); err != nil {
		return 0, err
	}
	n, err := s.f.Write(p)
	s.size += int64(n)
	return n, err
}

// Size returns the file's byte length: what a checkpoint records as the
// next resume's splice point. ok is false for a stream.
func (s *SplicedFile) Size() (n int64, ok bool) { return s.size, !s.stream }

// Close cuts the file back to the splice point if nothing was written,
// then fsyncs and closes it.
func (s *SplicedFile) Close() error {
	err := s.cut()
	if serr := s.f.Sync(); err == nil && !s.stream {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *SplicedFile) cut() (err error) {
	if s.cutAt >= 0 {
		err, s.cutAt = s.f.Truncate(s.cutAt), -1
	}
	return err
}

// ReadLines walks appended JSON lines — the event journal, the
// telemetry stream — calling decode on each complete non-blank line, and
// returns the length of the clean prefix: every byte up to the end of
// the last line accepted. A final line that is unterminated, or
// terminated but not valid JSON, is a torn tail (a crash mid-append)
// and ends the walk without error. Any other failure — an invalid line
// before the tail, or decode rejecting a line — is an error naming the
// line, and clean stops before it.
func ReadLines(data []byte, decode func(line []byte) error) (clean int, err error) {
	for n := 1; clean < len(data); n++ {
		nl := bytes.IndexByte(data[clean:], '\n')
		if nl < 0 {
			return clean, nil
		}
		line := data[clean : clean+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			if err := decode(line); err != nil {
				if clean+nl+1 == len(data) && !json.Valid(line) {
					return clean, nil
				}
				return clean, fmt.Errorf("line %d: %w", n, err)
			}
		}
		clean += nl + 1
	}
	return clean, nil
}
