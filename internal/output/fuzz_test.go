package output

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/wire"
)

// fuzzSeedStream builds a valid two-record IWB1 stream for seeding.
func fuzzSeedStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	recs := []analysis.Record{
		{
			Addr: wire.MustParseAddr("203.0.113.7"), Port: 80,
			Outcome: core.OutcomeSuccess, IW: 10, Segments64: 10, Segments128: 10,
			MaxSeg: 64, ASN: 64500, ASName: "ExampleNet", RDNS: "web.example.net",
		},
		{
			Addr: wire.MustParseAddr("198.51.100.9"), Port: 443,
			Outcome: core.OutcomeSuccess, IW: 64, ByteLimited: true, IWBytes: 4096,
			Segments64: 64, Segments128: 32, MaxSeg: 64, ASN: 64501, ASName: "CDN",
		},
	}
	for i := range recs {
		if err := s.WriteRecord(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzBinaryReader feeds arbitrary bytes to the IWB1 decoder. The
// decoder must never panic, never allocate frames beyond its cap, and —
// when it does accept a stream — produce records that survive a binary
// round trip.
func FuzzBinaryReader(f *testing.F) {
	valid := fuzzSeedStream(f)
	f.Add(valid)
	// Torn tail: the stream cut mid-frame.
	f.Add(valid[:len(valid)-3])
	// Truncated frame-length uvarint at the tail: a lone continuation
	// byte promises more length bits that never arrive.
	f.Add(append(append([]byte{}, valid...), 0x80))
	// Implausible frame length (1 GiB) right after the magic.
	huge := []byte("IWB1")
	var tmp [binary.MaxVarintLen64]byte
	huge = append(huge, tmp[:binary.PutUvarint(tmp[:], 1<<30)]...)
	f.Add(huge)
	// Frame whose inner string length overruns the payload.
	f.Add([]byte("IWB1\x03\x01\x02\xff"))
	// Wrong magic and empty input.
	f.Add([]byte("IWB2\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted streams must re-encode to a stream that decodes to the
		// same records (canonical round trip).
		var buf bytes.Buffer
		s := NewBinarySink(&buf)
		for i := range recs {
			if err := s.WriteRecord(&recs[i]); err != nil {
				t.Fatalf("re-encoding accepted record: %v", err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding re-encoded stream: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, recs[i], again[i])
			}
		}
	})
}

// FuzzBinaryRoundTrip drives the encoder with arbitrary field values
// and asserts the decoder returns them bit-for-bit.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint32(0xC0000207), uint16(80), uint8(0), 10, 0, false, 0, 10, 10, 64, 64500, "ExampleNet", "host.example.net")
	f.Add(uint32(0xCB007109), uint16(443), uint8(1), 64, 2, true, 4096, 64, 32, 1460, 0, "", "")
	f.Add(uint32(0), uint16(0), uint8(4), -1, -1, false, -1, -1, -1, -1, -1, "名前", string([]byte{0xff, 0x00}))

	f.Fuzz(func(t *testing.T, addr uint32, port uint16, outcome uint8,
		iw, lb int, byteLimited bool, iwBytes, seg64, seg128, maxSeg, asn int,
		asName, rdns string) {
		// Negative ints would round-trip through uint64 into different
		// negative values on 32-bit int platforms; the encoder's contract
		// is non-negative counters.
		for _, v := range []int{iw, lb, iwBytes, seg64, seg128, maxSeg, asn} {
			if v < 0 {
				return
			}
		}
		rec := analysis.Record{
			Addr: wire.Addr(addr), Port: port, Outcome: core.Outcome(outcome),
			IW: iw, LowerBound: lb, ByteLimited: byteLimited, IWBytes: iwBytes,
			Segments64: seg64, Segments128: seg128, MaxSeg: maxSeg,
			ASN: asn, ASName: asName, RDNS: rdns,
			NoData: core.Outcome(outcome) == core.OutcomeNoData,
		}
		var buf bytes.Buffer
		s := NewBinarySink(&buf)
		if err := s.WriteRecord(&rec); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding freshly encoded record: %v", err)
		}
		if len(got) != 1 || got[0] != rec {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", rec, got)
		}
	})
}

// TestBinaryReaderTornTail pins the exact error contract the resume
// logic depends on: a clean end yields io.EOF, a cut anywhere inside
// the final frame yields a non-EOF error.
func TestBinaryReaderTornTail(t *testing.T) {
	valid := fuzzSeedStream(t)
	if recs, err := ReadBinary(bytes.NewReader(valid)); err != nil || len(recs) != 2 {
		t.Fatalf("valid stream: %d records, err %v", len(recs), err)
	}
	for cut := len(binaryMagic) + 1; cut < len(valid); cut++ {
		recs, err := ReadBinary(bytes.NewReader(valid[:cut]))
		if err == nil && len(recs) == 2 {
			t.Fatalf("cut at %d still produced the full stream", cut)
		}
		if err == io.EOF {
			t.Fatalf("cut at %d surfaced bare io.EOF", cut)
		}
	}
}

// FuzzReadLines holds the shared torn-tail line reader to its contract
// on arbitrary bytes: the clean prefix ends on a line boundary, reads
// back whole and error-free, and half a line appended to it (a crash
// mid-append) is a torn tail that leaves it unchanged.
func FuzzReadLines(f *testing.F) {
	f.Add([]byte("{\"seq\":1}\n{\"seq\":2}\n"))
	f.Add([]byte("{\"seq\":1}\n{\"seq\":2"))
	f.Add([]byte("{\"seq\":1}\n\n  \n{\"seq\":2}\n{\"se\n"))
	f.Add([]byte("{\"seq\":1}\nnot json\n{\"seq\":3}\n"))
	f.Add([]byte("{\"seq\":\"one\"}\n"))
	decode := func(line []byte) error {
		var v struct {
			Seq int `json:"seq"`
		}
		return json.Unmarshal(line, &v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clean, err := ReadLines(data, decode)
		if clean < 0 || clean > len(data) || (clean > 0 && data[clean-1] != '\n') {
			t.Fatalf("clean = %d of %d bytes, not on a line boundary", clean, len(data))
		}
		prefix := data[:clean:clean]
		if again, err2 := ReadLines(prefix, decode); again != clean || err2 != nil {
			t.Fatalf("re-reading the clean prefix: clean %d -> %d, err %v (first read err %v)", clean, again, err2, err)
		}
		if again, err2 := ReadLines(append(prefix, `{"seq":`...), decode); again != clean || err2 != nil {
			t.Fatalf("half a line after the clean prefix: clean %d -> %d, err %v", clean, again, err2)
		}
	})
}
