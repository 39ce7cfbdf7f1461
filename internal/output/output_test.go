package output

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/wire"
)

// sampleRecords covers every field and outcome the codecs must carry,
// including empty strings, the ByteLimited flag and multi-byte varint
// values.
func sampleRecords() []analysis.Record {
	return []analysis.Record{
		{
			Addr: wire.MustParseAddr("10.1.2.3"), Port: 80,
			Outcome: core.OutcomeSuccess, IW: 10, IWBytes: 640,
			Segments64: 10, Segments128: 5, MaxSeg: 1460,
			ASN: 64512, ASName: "EXAMPLE-NET", RDNS: "a.example.net",
		},
		{
			Addr: wire.MustParseAddr("192.0.2.255"), Port: 443,
			Outcome: core.OutcomeFewData, LowerBound: 2, ByteLimited: true,
			IWBytes: 131072, ASN: 1,
		},
		{
			Addr: wire.MustParseAddr("203.0.113.9"), Port: 80,
			Outcome: core.OutcomeNoData, NoData: true,
		},
		{
			Addr: wire.MustParseAddr("0.0.0.1"), Port: 80,
			Outcome: core.OutcomeError, ASName: "has,comma \"quote\"",
			RDNS: "weird host.example",
		},
		{
			Addr: wire.MustParseAddr("255.255.255.254"), Port: 80,
			Outcome: core.OutcomeUnreachable,
		},
	}
}

// eq ignores Seq, which is in-memory plumbing and not serialized.
func eq(a, b analysis.Record) bool {
	a.Seq, b.Seq = 0, 0
	return a == b
}

func checkRoundTrip(t *testing.T, name string, got []analysis.Record, want []analysis.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records round-tripped, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !eq(got[i], want[i]) {
			t.Errorf("%s record %d: got %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestCSVSinkRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	if err := WriteAll(sink, recs); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := analysis.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, "csv", got, recs)
}

func TestCSVSinkEmptyScanStillWritesHeader(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "addr,") {
		t.Fatalf("empty scan output %q lacks the CSV header", buf.String())
	}
}

func TestCSVAppendSinkContinuesFile(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	first := NewCSVSink(&buf)
	if err := WriteAll(first, recs[:2]); err != nil {
		t.Fatal(err)
	}
	second, _ := NewFileSink(&buf, "csv", true)
	if err := WriteAll(second, recs[2:]); err != nil {
		t.Fatal(err)
	}
	content := buf.String()
	got, err := analysis.ReadCSV(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, "csv-append", got, recs)
	if n := strings.Count(content, "addr,"); n != 1 {
		t.Fatalf("appended file has %d header rows, want 1", n)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if err := WriteAll(sink, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, "jsonl", got, recs)
}

func TestBinarySinkRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	if err := WriteAll(sink, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(binaryMagic)) {
		t.Fatal("binary stream does not start with the IWB1 magic")
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, "bin", got, recs)
}

func TestBinaryAppendSinkContinuesFile(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	first := NewBinarySink(&buf)
	if err := WriteAll(first, recs[:3]); err != nil {
		t.Fatal(err)
	}
	second, _ := NewFileSink(&buf, "bin", true)
	if err := WriteAll(second, recs[3:]); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(binaryMagic)); n != 1 {
		t.Fatalf("appended stream contains the magic %d times, want 1", n)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, "bin-append", got, recs)
}

func TestBinaryReaderDetectsTornTail(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	if err := WriteAll(sink, recs); err != nil {
		t.Fatal(err)
	}
	// Chop the last frame mid-payload: an interrupted scan's tail.
	torn := buf.Bytes()[:buf.Len()-3]
	r, err := NewBinaryReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	var got int
	for {
		_, err = r.Next()
		if err != nil {
			break
		}
		got++
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn tail: got error %v, want io.ErrUnexpectedEOF", err)
	}
	if got != len(recs)-1 {
		t.Fatalf("read %d intact records before the torn frame, want %d", got, len(recs)-1)
	}
}

func TestBinaryReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestNewFileSinkFormats(t *testing.T) {
	recs := sampleRecords()
	for _, format := range []string{"csv", "jsonl", "bin"} {
		var buf bytes.Buffer
		sink, err := NewFileSink(&buf, format, false)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := WriteAll(sink, recs); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var got []analysis.Record
		switch format {
		case "csv":
			got, err = analysis.ReadCSV(&buf)
		case "jsonl":
			got, err = ReadJSONL(&buf)
		case "bin":
			got, err = ReadBinary(&buf)
		}
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		checkRoundTrip(t, format, got, recs)
	}
	if _, err := NewFileSink(io.Discard, "xml", false); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestOpenFileSinkSplice: a spliced artifact is cut back to the splice
// point at the first flush (not at open), continues without a preamble,
// reports its length through an AsyncSink, and is refused when shorter
// than the splice point.
func TestOpenFileSinkSplice(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "scan.iwb")
	var want bytes.Buffer
	if err := WriteAll(NewBinarySink(&want), recs); err != nil {
		t.Fatal(err)
	}

	first, err := OpenFileSink(path, "bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(first, recs[:2]); err != nil {
		t.Fatal(err)
	}
	at, _ := first.Size()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	torn := append(want.Bytes()[:at:at], 0x7f, 0x01) // a frame cut short
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	sink, err := OpenFileSink(path, "bin", at)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, torn) {
		t.Fatal("opening the splice modified the file before any write")
	}
	async := NewAsyncSink(sink, 4)
	if err := WriteAll(async, recs[2:]); err != nil {
		t.Fatal(err)
	}
	if n, ok := async.Size(); !ok || n != int64(want.Len()) {
		t.Fatalf("AsyncSink.Size = %d, %v; want %d, true", n, ok, want.Len())
	}
	if err := async.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("spliced file differs from a single uninterrupted write")
	}

	if _, err := OpenFileSink(path, "bin", int64(want.Len())+1); !errors.Is(err, ErrShortArtifact) {
		t.Fatalf("splice past the end: err = %v, want ErrShortArtifact", err)
	}
}

// TestAppendFileSinkNoPreamble: a resumed stream continues with records
// only — no second CSV header, no second IWB1 magic — and its length is
// unknown.
func TestAppendFileSinkNoPreamble(t *testing.T) {
	recs := sampleRecords()
	for _, format := range []string{"csv", "bin"} {
		var fresh, cont bytes.Buffer
		first, _ := NewFileSink(&fresh, format, false)
		second, _ := NewFileSink(&cont, format, true)
		if err := WriteAll(first, recs); err != nil {
			t.Fatal(err)
		}
		if err := WriteAll(second, recs); err != nil {
			t.Fatal(err)
		}
		sink, err := AppendFileSink(os.DevNull, format)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sink.Size(); ok {
			t.Errorf("%s: a stream reports a length", format)
		}
		sink.Close()

		path := filepath.Join(t.TempDir(), "out."+format)
		if sink, err = AppendFileSink(path, format); err != nil {
			t.Fatal(err)
		}
		if err := WriteAll(sink, recs); err != nil {
			t.Fatal(err)
		}
		sink.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, cont.Bytes()) || bytes.Equal(got, fresh.Bytes()) {
			t.Errorf("%s: appended %d bytes, want the %d without the preamble (fresh %d)", format, len(got), cont.Len(), fresh.Len())
		}
	}
}

func TestMemorySinkCopiesRecords(t *testing.T) {
	m := NewMemorySink()
	r := sampleRecords()[0]
	if err := m.WriteRecord(&r); err != nil {
		t.Fatal(err)
	}
	r.IW = 999 // mutating the caller's record must not reach the sink
	if got := m.Records(); len(got) != 1 || got[0].IW == 999 {
		t.Fatalf("MemorySink aliased the caller's record: %+v", got)
	}
}

func TestCountingSinkCountsAndForwards(t *testing.T) {
	recs := sampleRecords()
	inner := NewMemorySink()
	c := NewCountingSink(inner)
	if err := WriteAll(c, recs); err != nil {
		t.Fatal(err)
	}
	if c.Count() != int64(len(recs)) {
		t.Fatalf("count = %d, want %d", c.Count(), len(recs))
	}
	if len(inner.Records()) != len(recs) {
		t.Fatalf("inner sink saw %d records, want %d", len(inner.Records()), len(recs))
	}
	bare := NewCountingSink(nil)
	if err := WriteAll(bare, recs); err != nil {
		t.Fatal(err)
	}
	if bare.Count() != int64(len(recs)) {
		t.Fatalf("bare count = %d, want %d", bare.Count(), len(recs))
	}
}

func TestTeeWritesEverySink(t *testing.T) {
	recs := sampleRecords()
	a, b := NewMemorySink(), NewMemorySink()
	if err := WriteAll(Tee(a, b), recs); err != nil {
		t.Fatal(err)
	}
	if len(a.Records()) != len(recs) || len(b.Records()) != len(recs) {
		t.Fatalf("tee fan-out incomplete: %d / %d, want %d each",
			len(a.Records()), len(b.Records()), len(recs))
	}
}

// failSink fails every call with a fixed error.
type failSink struct{ err error }

func (f *failSink) WriteRecord(*analysis.Record) error { return f.err }
func (f *failSink) Flush() error                       { return f.err }
func (f *failSink) Close() error                       { return f.err }

func TestTeeReportsFirstErrorButWritesAll(t *testing.T) {
	boom := errors.New("boom")
	mem := NewMemorySink()
	s := Tee(&failSink{err: boom}, mem)
	r := sampleRecords()[0]
	if err := s.WriteRecord(&r); !errors.Is(err, boom) {
		t.Fatalf("tee error = %v, want %v", err, boom)
	}
	if len(mem.Records()) != 1 {
		t.Fatal("tee stopped at the failing sink instead of fanning out")
	}
}
