package events

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"iwscan/internal/checkpoint"
	"iwscan/internal/output"
)

// Journal file layout inside the events directory.
const (
	// FileName is the append-only JSONL journal.
	FileName = "events.jsonl"
	// MetaName is the durability sidecar: the highest sequence known
	// to be fsynced, written with temp+fsync+rename so it never gets
	// ahead of the journal itself.
	MetaName = "journal.meta.json"
)

// ringCap bounds the in-memory tail kept for cheap Since/Subscribe
// backfills; older events are re-read from the file on demand.
const ringCap = 4096

// Named errors for events-directory validation, mirroring the
// -flight-dir guard in iwscan: callers (iwserve) refuse to start
// rather than scribble into a directory that is not theirs.
var (
	// ErrForeignFiles: the directory exists and holds files that are
	// not a journal (so it probably belongs to something else).
	ErrForeignFiles = errors.New("events dir holds foreign files")
	// ErrNotWritable: the directory cannot be created or written.
	ErrNotWritable = errors.New("events dir is not writable")
)

type metaFile struct {
	SyncedSeq     uint64 `json:"synced_seq"`
	CreatedUnixNS int64  `json:"created_unix_ns"`
}

// Journal is an append-only event log with monotonic sequence numbers,
// live subscriptions, and crash-tolerant reopen. All methods are safe
// for concurrent use.
type Journal struct {
	dir  string
	path string

	mu       sync.Mutex
	f        *os.File
	lastSeq  uint64
	created  int64
	ring     []Event
	watchers map[*Watcher]bool
	closed   bool
	err      error
}

// Open validates dir (creating it if absent), recovers any existing
// journal — tolerating a torn final line, which is truncated away —
// and returns a Journal whose next Append continues the sequence from
// the highest recovered event. A directory containing files other
// than a journal fails with ErrForeignFiles; an uncreatable or
// unwritable directory fails with ErrNotWritable.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotWritable, err)
	}
	if err := validateDir(dir); err != nil {
		return nil, err
	}
	probe := filepath.Join(dir, ".events-probe.tmp")
	if err := os.WriteFile(probe, nil, 0o644); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotWritable, err)
	}
	os.Remove(probe)

	path := filepath.Join(dir, FileName)
	j := &Journal{
		dir:      dir,
		path:     path,
		created:  time.Now().UnixNano(),
		watchers: make(map[*Watcher]bool),
	}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("read journal: %w", err)
	}
	if len(data) > 0 {
		evs, clean, derr := Decode(data)
		if derr != nil {
			return nil, fmt.Errorf("recover journal %s: %w", path, derr)
		}
		if len(evs) > 0 {
			j.lastSeq = evs[len(evs)-1].Seq
			if len(evs) > ringCap {
				evs = evs[len(evs)-ringCap:]
			}
			j.ring = append(j.ring, evs...)
		}
		if clean < len(data) {
			// Torn tail from a crash mid-append: drop it so the next
			// append starts on a line boundary.
			if terr := os.Truncate(path, int64(clean)); terr != nil {
				return nil, fmt.Errorf("truncate torn journal tail: %v", terr)
			}
		}
	}

	// The meta sidecar records the highest fsynced sequence; it is
	// written only after a successful journal fsync, so a meta ahead
	// of the recovered tail means durable events were lost.
	var m metaFile
	if mdata, merr := os.ReadFile(filepath.Join(dir, MetaName)); merr == nil {
		if uerr := json.Unmarshal(mdata, &m); uerr != nil {
			return nil, fmt.Errorf("recover journal meta: %v", uerr)
		}
		if m.SyncedSeq > j.lastSeq {
			return nil, fmt.Errorf("recover journal %s: meta records synced seq %d but journal ends at %d (synced events lost)",
				path, m.SyncedSeq, j.lastSeq)
		}
		if m.CreatedUnixNS != 0 {
			j.created = m.CreatedUnixNS
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotWritable, err)
	}
	j.f = f
	return j, nil
}

// validateDir rejects a directory holding anything that is not part of
// a journal (the journal itself, its meta sidecar, or leftover *.tmp
// files from interrupted atomic writes).
func validateDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotWritable, err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == FileName || name == MetaName {
			continue
		}
		if filepath.Ext(name) == ".tmp" {
			continue
		}
		return fmt.Errorf("%w: %s/%s", ErrForeignFiles, dir, name)
	}
	return nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Append assigns the next sequence number, stamps the wall clock if
// the caller left it zero, writes the line, and fans the event out to
// subscribers. It returns the assigned sequence, or 0 if the journal
// is closed. Write errors do not fail the caller: they go sticky and
// surface via Err and Close.
func (j *Journal) Append(ev Event) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0
	}
	j.lastSeq++
	ev.Seq = j.lastSeq
	if ev.WallNS == 0 {
		ev.WallNS = time.Now().UnixNano()
	}
	line, err := json.Marshal(ev)
	if err != nil {
		// Unmarshalable Fields value; record and drop the payload but
		// keep the sequence advancing so readers see the gap cause.
		if j.err == nil {
			j.err = fmt.Errorf("marshal event %d: %v", ev.Seq, err)
		}
		ev.Fields = map[string]any{"marshal_error": err.Error()}
		line, _ = json.Marshal(ev)
	}
	line = append(line, '\n')
	if _, werr := j.f.Write(line); werr != nil && j.err == nil {
		j.err = werr
	}
	j.ring = append(j.ring, ev)
	if len(j.ring) > 2*ringCap {
		j.ring = append(j.ring[:0:0], j.ring[len(j.ring)-ringCap:]...)
	}
	for w := range j.watchers {
		select {
		case w.ch <- ev:
		default:
			// Never skip events on a slow consumer: closing the stream
			// forces a reconnect from the last seen sequence, which
			// replays from the journal, so the gap-free guarantee
			// holds end to end.
			w.overflow = true
			delete(j.watchers, w)
			close(w.ch)
		}
	}
	return ev.Seq
}

// Sync fsyncs the journal file and then atomically updates the meta
// sidecar's synced-sequence high-water mark.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.f == nil {
		return j.err
	}
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = err
	}
	if j.err == nil {
		data, _ := json.MarshalIndent(metaFile{SyncedSeq: j.lastSeq, CreatedUnixNS: j.created}, "", "  ")
		if err := checkpoint.WriteFileAtomic(filepath.Join(j.dir, MetaName), append(data, '\n')); err != nil {
			j.err = err
		}
	}
	return j.err
}

// HighWater returns the sequence of the most recent event (0 when the
// journal is empty).
func (j *Journal) HighWater() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Watchers returns the number of live subscribers.
func (j *Journal) Watchers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.watchers)
}

// Err returns the sticky write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Since returns all events with Seq >= from in order. Recent events
// come from the in-memory tail; older ones are re-read from the file.
func (j *Journal) Since(from uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceLocked(from)
}

func (j *Journal) sinceLocked(from uint64) []Event {
	if from > j.lastSeq {
		return nil
	}
	if from < 1 {
		from = 1
	}
	if len(j.ring) > 0 && j.ring[0].Seq <= from {
		i := sort.Search(len(j.ring), func(i int) bool { return j.ring[i].Seq >= from })
		out := make([]Event, len(j.ring)-i)
		copy(out, j.ring[i:])
		return out
	}
	// Tail fell out of the ring: re-read the file. Appends hold the
	// mutex and write unbuffered, so the file is complete up to
	// lastSeq here.
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil
	}
	evs, _, derr := Decode(data)
	if derr != nil {
		return nil
	}
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Seq >= from })
	return evs[i:]
}

// Watcher is a live subscription created by Subscribe. Events arrive
// on C in sequence order with no gaps relative to the backlog returned
// alongside it. If the subscriber falls too far behind, the journal
// closes C rather than skip events; Overflowed reports that case and
// the client resumes from its last seen sequence.
type Watcher struct {
	ch       chan Event
	j        *Journal
	overflow bool
}

// C returns the event delivery channel. It is closed on journal close
// (after any terminal event has been delivered) or on overflow.
func (w *Watcher) C() <-chan Event { return w.ch }

// Overflowed reports whether the subscription was closed because the
// consumer fell behind.
func (w *Watcher) Overflowed() bool {
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	return w.overflow
}

// Close cancels the subscription.
func (w *Watcher) Close() {
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	if w.j.watchers[w] {
		delete(w.j.watchers, w)
		close(w.ch)
	}
}

// Subscribe registers a live watcher and returns it together with the
// backlog of events already journaled with Seq >= from. Registration
// and backlog capture are atomic with respect to Append, so the
// backlog plus the channel form a gap-free sequence. buf is the
// channel depth (minimum 16).
func (j *Journal) Subscribe(from uint64, buf int) (*Watcher, []Event) {
	if buf < 16 {
		buf = 16
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	backlog := j.sinceLocked(from)
	w := &Watcher{ch: make(chan Event, buf), j: j}
	if j.closed {
		close(w.ch)
		return w, backlog
	}
	j.watchers[w] = true
	return w, backlog
}

// Close syncs and closes the journal and closes every watcher channel
// (events already delivered, such as a terminal server_shutdown,
// remain readable from the channels' buffers). Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	for w := range j.watchers {
		delete(j.watchers, w)
		close(w.ch)
	}
	err := j.syncLocked()
	if j.f != nil {
		if cerr := j.f.Close(); cerr != nil && err == nil {
			err = cerr
			j.err = cerr
		}
		j.f = nil
	}
	return err
}

// Decode parses journal bytes through output.ReadLines, tolerating a
// torn final line. It returns the decoded events, the byte length of
// the clean prefix, and an error only for real corruption: an
// unparseable line before the tail, a missing seq, or a sequence break
// between consecutive events.
func Decode(data []byte) (evs []Event, clean int, err error) {
	clean, err = output.ReadLines(data, func(line []byte) error {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if ev.Seq == 0 {
			return errors.New("missing seq")
		}
		if n := len(evs); n > 0 && ev.Seq != evs[n-1].Seq+1 {
			return fmt.Errorf("sequence break: %d follows %d", ev.Seq, evs[n-1].Seq)
		}
		evs = append(evs, ev)
		return nil
	})
	return evs, clean, err
}

// ReadFile decodes a journal file with torn-tail tolerance, returning
// the events and the number of trailing bytes dropped as torn.
func ReadFile(path string) (evs []Event, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	evs, clean, err := Decode(data)
	if err != nil {
		return nil, 0, err
	}
	return evs, len(data) - clean, nil
}
