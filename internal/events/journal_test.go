package events

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	for i := 0; i < 50; i++ {
		seq := j.Append(Event{Type: TypeStateChange, Job: "j1", Tenant: "acme",
			Fields: map[string]any{"i": i}})
		if seq != uint64(i+1) {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
	}
	if hw := j.HighWater(); hw != 50 {
		t.Fatalf("high water = %d, want 50", hw)
	}
	got := j.Since(11)
	if len(got) != 40 || got[0].Seq != 11 || got[len(got)-1].Seq != 50 {
		t.Fatalf("Since(11): %d events, first %d last %d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	evs, torn, err := ReadFile(filepath.Join(dir, FileName))
	if err != nil || torn != 0 {
		t.Fatalf("ReadFile: torn=%d err=%v", torn, err)
	}
	if len(evs) != 50 || evs[49].Fields["i"] != float64(49) {
		t.Fatalf("read back %d events, last i=%v", len(evs), evs[len(evs)-1].Fields["i"])
	}
}

func TestReopenContinuesSequenceAfterTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: TypeDispatch, Tenant: "acme"})
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-append: a half-written unterminated line.
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"seq":11,"type":"disp`)
	f.Close()

	j2 := openT(t, dir)
	if hw := j2.HighWater(); hw != 10 {
		t.Fatalf("reopened high water = %d, want 10 (torn tail dropped)", hw)
	}
	if seq := j2.Append(Event{Type: TypeDaemonStart}); seq != 11 {
		t.Fatalf("first append after reopen = seq %d, want 11", seq)
	}
	j2.Close()
	evs, torn, err := ReadFile(path)
	if err != nil || torn != 0 {
		t.Fatalf("ReadFile after reopen: torn=%d err=%v", torn, err)
	}
	if len(evs) != 11 || evs[10].Type != TypeDaemonStart {
		t.Fatalf("got %d events, last type %q", len(evs), evs[len(evs)-1].Type)
	}
}

func TestDecodeRejectsMidFileCorruption(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"seq":1,"wall_ns":1,"type":"a"}` + "\n")
	buf.WriteString("not json\n")
	buf.WriteString(`{"seq":2,"wall_ns":2,"type":"b"}` + "\n")
	if _, _, err := Decode(buf.Bytes()); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
	// Sequence break is corruption too.
	buf.Reset()
	buf.WriteString(`{"seq":1,"wall_ns":1,"type":"a"}` + "\n")
	buf.WriteString(`{"seq":3,"wall_ns":2,"type":"b"}` + "\n")
	if _, _, err := Decode(buf.Bytes()); err == nil {
		t.Fatal("sequence break not rejected")
	}
}

func TestOpenRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrForeignFiles) {
		t.Fatalf("got %v, want ErrForeignFiles", err)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	// A regular file where the directory should be fails creation
	// regardless of euid (chmod-based checks are moot as root).
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(filepath.Join(blocker, "events"))
	if !errors.Is(err, ErrNotWritable) {
		t.Fatalf("got %v, want ErrNotWritable", err)
	}
}

func TestOpenRejectsMetaAheadOfJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	j.Append(Event{Type: TypeDaemonStart})
	j.Close() // syncs meta at seq 1
	// Truncate the journal to empty while meta still says seq 1.
	if err := os.Truncate(filepath.Join(dir, FileName), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("meta ahead of journal not rejected")
	}
}

func TestSubscribeBacklogPlusLiveGapFree(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	for i := 0; i < 5; i++ {
		j.Append(Event{Type: TypeDispatch})
	}
	w, backlog := j.Subscribe(3, 64)
	defer w.Close()
	if len(backlog) != 3 || backlog[0].Seq != 3 {
		t.Fatalf("backlog: %d events, first %d", len(backlog), backlog[0].Seq)
	}
	for i := 0; i < 4; i++ {
		j.Append(Event{Type: TypeVtimeCharge})
	}
	want := uint64(6)
	for i := 0; i < 4; i++ {
		ev := <-w.C()
		if ev.Seq != want {
			t.Fatalf("live event %d: seq %d, want %d", i, ev.Seq, want)
		}
		want++
	}
	j.Close()
	if _, ok := <-w.C(); ok {
		t.Fatal("channel not closed after journal close")
	}
}

func TestSlowWatcherOverflowsWithoutSkipping(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	defer j.Close()
	w, _ := j.Subscribe(1, 16)
	for i := 0; i < 100; i++ {
		j.Append(Event{Type: TypeDispatch})
	}
	// Nobody drained: the watcher must have been cut off, not skipped
	// ahead — events received before the close are contiguous.
	seen := uint64(0)
	for ev := range w.C() {
		seen++
		if ev.Seq != seen {
			t.Fatalf("gap: got seq %d, want %d", ev.Seq, seen)
		}
	}
	if !w.Overflowed() {
		t.Fatal("overflow not reported")
	}
	// Resuming from the last seen sequence replays the rest.
	w2, backlog := j.Subscribe(seen+1, 16)
	defer w2.Close()
	if len(backlog) == 0 || backlog[0].Seq != seen+1 {
		t.Fatalf("resume backlog starts at %d, want %d", backlog[0].Seq, seen+1)
	}
}

func TestSinceFallsBackToFileBeyondRing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "events")
	j := openT(t, dir)
	defer j.Close()
	n := 2*ringCap + 100
	for i := 0; i < n; i++ {
		j.Append(Event{Type: TypeDispatch})
	}
	got := j.Since(1)
	if len(got) != n || got[0].Seq != 1 || got[len(got)-1].Seq != uint64(n) {
		t.Fatalf("Since(1) beyond ring: %d events (want %d), first %d last %d",
			len(got), n, got[0].Seq, got[len(got)-1].Seq)
	}
}

func TestTraceExportValidates(t *testing.T) {
	evs := []Event{
		{Seq: 1, WallNS: 1000, Type: TypeDaemonStart},
		{Seq: 2, WallNS: 2000, Type: TypeJobSubmitted, Job: "j1", Tenant: "acme",
			Span: JobSpan("j1"), Phase: PhaseBegin, Fields: map[string]any{"rate": 60}},
		{Seq: 3, WallNS: 3000, Type: TypeDispatch, Job: "j1", Tenant: "acme"},
		{Seq: 4, WallNS: 4000, Type: TypeSegmentStart, Job: "j1", Tenant: "acme",
			Span: SegmentSpan("j1", 0), Parent: JobSpan("j1"), Phase: PhaseBegin},
		{Seq: 5, WallNS: 5000, Type: TypeShardStart, Job: "j1", Tenant: "acme",
			Span: ShardSpan("j1", 0, 0), Parent: SegmentSpan("j1", 0), Phase: PhaseBegin},
		{Seq: 6, WallNS: 6000, Type: TypeShardEnd, Job: "j1", Tenant: "acme",
			Span: ShardSpan("j1", 0, 0), Phase: PhaseEnd},
		{Seq: 7, WallNS: 7000, Type: TypeSegmentEnd, Job: "j1", Tenant: "acme",
			Span: SegmentSpan("j1", 0), Phase: PhaseEnd},
		{Seq: 8, WallNS: 8000, Type: TypeStateChange, Job: "j1", Tenant: "acme",
			Span: JobSpan("j1"), Phase: PhaseEnd,
			Fields: map[string]any{"from": "running", "to": "completed"}},
		// Unclosed span: opened, never ended (crash tail).
		{Seq: 9, WallNS: 9000, Type: TypeSegmentStart, Job: "j1", Tenant: "acme",
			Span: SegmentSpan("j1", 1), Parent: JobSpan("j1"), Phase: PhaseBegin},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, evs); err != nil {
		t.Fatalf("export: %v", err)
	}
	n, err := ValidateTraceEvents(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n < len(evs) {
		t.Fatalf("trace has %d events, want >= %d", n, len(evs))
	}

	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"name":"","ph":"i","ts":0}]}`,
		`{"traceEvents":[{"name":"x","ph":"Q","ts":0}]}`,
		`{"traceEvents":[{"name":"x","ph":"i"}]}`,
		`{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-2}]}`,
		`not json`,
	} {
		if _, err := ValidateTraceEvents([]byte(bad)); err == nil {
			t.Errorf("ValidateTraceEvents accepted %s", bad)
		}
	}
}
