// Package checkpoint persists scan state so interrupted runs can
// resume without re-probing finished targets — the footprint-reduction
// ethic the paper inherits from its scanning-etiquette lineage: a
// 7.5-hour scan killed at hour 6 should cost one hour to finish, not
// seven more. A checkpoint captures, per shard, a consistent
// permutation cursor (every sequence below it is durably in the output;
// everything at or above it gets re-probed on resume), plus engine
// stats and a partial metrics snapshot for reporting, guarded by a
// fingerprint of the scan configuration so a cursor is never replayed
// into a differently parameterized scan.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"iwscan/internal/scanner"
)

// Version is the current checkpoint schema version.
const Version = 1

// ErrNoOutputBytes refuses a resume whose checkpoint does not record the
// output file's length: appending blindly would duplicate records.
var ErrNoOutputBytes = errors.New("checkpoint: no output_bytes recorded, so the output file cannot be spliced")

// ShardState is one shard's resume point plus its reporting counters.
type ShardState struct {
	// Shard / Shards identify the slice of the scan this cursor belongs
	// to (0/1 for an unsharded scan).
	Shard  uint64 `json:"shard"`
	Shards uint64 `json:"shards"`
	// Cursor is the engine's consistent frontier: Cursor.Seq records
	// have been emitted to the output, and the embedded permutation
	// state reproduces everything from there on.
	Cursor scanner.Cursor `json:"cursor"`
	// Stats are the engine counters at checkpoint time (informational;
	// a resumed run reports its own counters for the remainder).
	Launched  int64 `json:"launched"`
	Completed int64 `json:"completed"`
	Skipped   int64 `json:"skipped"`
	Pruned    int64 `json:"pruned,omitempty"`
	Retries   int64 `json:"retries"`
}

// State is a whole persisted checkpoint.
type State struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Completed marks a checkpoint written after the scan finished;
	// resuming from it is a no-op scan.
	Completed bool `json:"completed"`
	// VirtualNS is the virtual-time clock (ns) when the checkpoint was
	// taken.
	VirtualNS int64 `json:"virtual_ns"`
	// OutputBytes is the byte length of the scan's output file when the
	// checkpoint was taken — the point a resume splices at, cutting any
	// tail written after it. Nil when the output had no known length
	// (a stream) and in checkpoints written before it was recorded.
	OutputBytes *int64 `json:"output_bytes,omitempty"`
	// Shards holds one cursor per engine instance; a single-process
	// scan has exactly one entry.
	Shards []ShardState `json:"shards"`
	// Metrics is the partial metrics-registry snapshot at checkpoint
	// time, embedded verbatim in the registry's JSON form.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Config is the named breakdown of the fingerprint: one entry per
	// identity-defining configuration field. It exists so a fingerprint
	// mismatch can say *which* fields differ instead of only that the
	// hashes do. Optional — checkpoints written before this field (or by
	// callers using the bare Fingerprint) validate the same way, just
	// with the less helpful message.
	Config []Field `json:"config,omitempty"`
}

// Find returns the cursor for the given shard/shards slice, or an error
// when the checkpoint does not cover it.
func (s *State) Find(shard, shards uint64) (*ShardState, error) {
	for i := range s.Shards {
		if s.Shards[i].Shard == shard && s.Shards[i].Shards == shards {
			return &s.Shards[i], nil
		}
	}
	return nil, fmt.Errorf("checkpoint: no cursor for shard %d/%d", shard, shards)
}

// MismatchError reports a resume attempt whose scan configuration does
// not match the checkpoint's fingerprint. Fields names the differing
// configuration fields ("name: checkpoint X, scan Y") when the
// checkpoint recorded its field breakdown; checkpoints written before
// field recording leave it empty. Callers assert it with errors.As to
// distinguish a config mismatch from I/O or version errors.
type MismatchError struct {
	CheckpointFingerprint string
	ScanFingerprint       string
	Fields                []string
}

func (e *MismatchError) Error() string {
	if len(e.Fields) > 0 {
		return fmt.Sprintf("checkpoint: fingerprint mismatch (checkpoint %s, scan %s); differing fields: %s",
			e.CheckpointFingerprint, e.ScanFingerprint, strings.Join(e.Fields, "; "))
	}
	return fmt.Sprintf("checkpoint: fingerprint %s does not match scan config %s (same seed, universe, strategy, sample, shards and blacklist required)",
		e.CheckpointFingerprint, e.ScanFingerprint)
}

// ValidateConfig checks that the checkpoint can seed a scan whose
// configuration is the given named fields: the schema version must
// match, the checkpoint must not be completed, and the fingerprints
// must agree. A mismatch is a *MismatchError listing exactly which
// fields differ (when the checkpoint recorded its own field breakdown;
// older checkpoints fall back to the hash-only message).
func (s *State) ValidateConfig(fields []Field) error {
	fp := FingerprintFields(fields)
	if s.Version != Version {
		return fmt.Errorf("checkpoint: version %d, want %d", s.Version, Version)
	}
	if s.Fingerprint != fp {
		return &MismatchError{
			CheckpointFingerprint: s.Fingerprint,
			ScanFingerprint:       fp,
			Fields:                DiffFields(s.Config, fields),
		}
	}
	if s.Completed {
		return fmt.Errorf("checkpoint: scan already completed")
	}
	return nil
}

// Save atomically persists the state: it writes a temporary file in the
// destination directory and renames it into place, so a crash mid-write
// leaves the previous checkpoint intact rather than a torn file.
func Save(path string, s *State) error {
	s.Version = Version
	return SaveJSON(path, s)
}

// WriteFileAtomic writes data to path with the same crash discipline
// Save uses: temp file in the destination directory, fsync, rename.
// Other durable control-plane state (job metadata in internal/jobs)
// shares this primitive so every on-disk artifact is either the old
// version or the new one, never a torn mix.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// SaveJSON marshals v (indented, trailing newline) and writes it with
// WriteFileAtomic.
func SaveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return WriteFileAtomic(path, data)
}

// Load reads a checkpoint previously written by Save.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing %s: %w", path, err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has version %d, want %d", path, s.Version, Version)
	}
	return &s, nil
}

// Field is one named, human-readable component of a configuration
// fingerprint. Keeping the name alongside the rendered value is what
// lets a resume rejection say "seed: checkpoint 5, scan 6" instead of
// only showing two hashes.
type Field struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// FieldList builds a field slice from alternating name, value pairs
// (values are rendered with %v). It panics on an odd argument count or
// a non-string name — both are programmer errors.
func FieldList(pairs ...any) []Field {
	if len(pairs)%2 != 0 {
		panic("checkpoint: FieldList needs name, value pairs")
	}
	out := make([]Field, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("checkpoint: FieldList name %d is %T, want string", i/2, pairs[i]))
		}
		out = append(out, Field{Name: name, Value: fmt.Sprintf("%v", pairs[i+1])})
	}
	return out
}

// FingerprintFields hashes a field list into the fingerprint string: a
// short stable digest of the identity-defining parts of a scan
// configuration. Two configurations with the same fingerprint walk the
// same permutation over the same space and produce the same record for
// every target, which is exactly the precondition for splicing a
// resumed run onto a checkpointed one. Names participate in the hash,
// so renaming or reordering fields (deliberately) changes it.
func FingerprintFields(fields []Field) string {
	h := fnv.New64a()
	for _, f := range fields {
		fmt.Fprintf(h, "%s=%s|", f.Name, f.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// DiffFields compares a checkpoint's recorded fields against the
// resuming scan's, returning one human-readable line per difference
// ("name: checkpoint X, scan Y"; fields present on only one side are
// reported too). An empty result with differing fingerprints means the
// checkpoint predates field recording.
func DiffFields(ck, scan []Field) []string {
	if len(ck) == 0 {
		return nil
	}
	ckBy := make(map[string]string, len(ck))
	for _, f := range ck {
		ckBy[f.Name] = f.Value
	}
	var diff []string
	seen := make(map[string]bool, len(scan))
	for _, f := range scan {
		seen[f.Name] = true
		v, ok := ckBy[f.Name]
		switch {
		case !ok:
			diff = append(diff, fmt.Sprintf("%s: not recorded in checkpoint, scan %s", f.Name, f.Value))
		case v != f.Value:
			diff = append(diff, fmt.Sprintf("%s: checkpoint %s, scan %s", f.Name, v, f.Value))
		}
	}
	for _, f := range ck {
		if !seen[f.Name] {
			diff = append(diff, fmt.Sprintf("%s: checkpoint %s, not in scan config", f.Name, f.Value))
		}
	}
	return diff
}
