package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/scanner"
)

var sampleFields = FieldList("tool", "iwscan", "seed", 2017, "sample_fraction", 0.01)

func sampleState() *State {
	return &State{
		Version:     Version,
		Fingerprint: FingerprintFields(sampleFields),
		VirtualNS:   123456789,
		Shards: []ShardState{{
			Shard: 2, Shards: 4,
			Cursor: scanner.Cursor{
				Seq:   100,
				Shard: scanner.ShardState{Cycle: scanner.CycleState{Cur: 7, First: false}, Pos: 42},
			},
			Launched: 100, Completed: 100, Skipped: 9, Retries: 3,
		}},
		Metrics: json.RawMessage(`{"counters":{"engine.launched":100}}`),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ck")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Fingerprint != want.Fingerprint ||
		got.VirtualNS != want.VirtualNS || got.Completed != want.Completed {
		t.Fatalf("loaded header differs: %+v vs %+v", got, want)
	}
	if len(got.Shards) != 1 || got.Shards[0] != want.Shards[0] {
		t.Fatalf("loaded shard state differs: %+v vs %+v", got.Shards, want.Shards)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := json.Compact(&gotBuf, got.Metrics); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantBuf, want.Metrics); err != nil {
		t.Fatal(err)
	}
	if gotBuf.String() != wantBuf.String() {
		t.Fatalf("metrics snapshot differs: %s vs %s", gotBuf.String(), wantBuf.String())
	}
}

// TestSaveIsAtomic: Save must never leave a temporary file behind, and
// overwriting an existing checkpoint must go through a rename (so a
// crash mid-write preserves the previous state rather than tearing it).
func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.ck")
	for i := 0; i < 3; i++ {
		s := sampleState()
		s.VirtualNS = int64(i)
		if err := Save(path, s); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "scan.ck" {
			t.Fatalf("leftover file %q after Save", e.Name())
		}
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualNS != 2 {
		t.Fatalf("checkpoint holds VirtualNS %d, want the last write (2)", got.VirtualNS)
	}
}

func TestValidateRejectsMismatchedFingerprint(t *testing.T) {
	s := sampleState()
	if err := s.ValidateConfig(sampleFields); err != nil {
		t.Fatalf("matching fingerprint rejected: %v", err)
	}
	other := FieldList("tool", "iwscan", "seed", 2018, "sample_fraction", 0.01)
	var mm *MismatchError
	if err := s.ValidateConfig(other); !errors.As(err, &mm) {
		t.Fatalf("mismatched fingerprint: err = %v, want a *MismatchError", err)
	}
}

func TestValidateRejectsCompletedAndWrongVersion(t *testing.T) {
	s := sampleState()
	s.Completed = true
	if err := s.ValidateConfig(sampleFields); err == nil ||
		!strings.Contains(err.Error(), "completed") {
		t.Fatalf("completed checkpoint accepted for resume (err=%v)", err)
	}
	s = sampleState()
	s.Version = Version + 1
	if err := s.ValidateConfig(sampleFields); err == nil {
		t.Fatal("wrong-version checkpoint accepted")
	}
}

func TestLoadRejectsCorruptAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ck")
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("corrupt checkpoint loaded")
	}
	old := filepath.Join(dir, "old.ck")
	if err := os.WriteFile(old, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(old); err == nil {
		t.Fatal("future-version checkpoint loaded")
	}
	if _, err := Load(filepath.Join(dir, "missing.ck")); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
}

func TestFindLocatesShardSlice(t *testing.T) {
	s := sampleState()
	st, err := s.Find(2, 4)
	if err != nil || st.Cursor.Seq != 100 {
		t.Fatalf("Find(2,4) = %+v, %v", st, err)
	}
	if _, err := s.Find(0, 4); err == nil {
		t.Fatal("Find returned a cursor for an uncovered shard")
	}
	if _, err := s.Find(2, 8); err == nil {
		t.Fatal("Find ignored the shard-count mismatch")
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	fp := func(seed uint64, mss []int) string {
		return FingerprintFields(FieldList("seed", seed, "sample", 0.5, "mss", mss))
	}
	a, b := fp(1, []int{64, 128}), fp(1, []int{64, 128})
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if a == fp(2, []int{64, 128}) {
		t.Fatal("fingerprint insensitive to the seed")
	}
	if a == fp(1, []int{64}) {
		t.Fatal("fingerprint insensitive to the MSS list")
	}
}

func TestFieldListAndFingerprintFields(t *testing.T) {
	a := FieldList("seed", uint64(5), "sample", 0.5)
	b := FieldList("seed", uint64(5), "sample", 0.5)
	if FingerprintFields(a) != FingerprintFields(b) {
		t.Fatal("field fingerprint not deterministic")
	}
	if FingerprintFields(a) == FingerprintFields(FieldList("seed", uint64(6), "sample", 0.5)) {
		t.Fatal("field fingerprint insensitive to a value change")
	}
	if FingerprintFields(a) == FingerprintFields(FieldList("sneed", uint64(5), "sample", 0.5)) {
		t.Fatal("field fingerprint insensitive to a name change")
	}
	if a[0].Name != "seed" || a[0].Value != "5" || a[1].Value != "0.5" {
		t.Fatalf("FieldList rendered %+v", a)
	}
}

// TestValidateConfigReportsDifferingFields is the satellite acceptance
// test: a resume rejection must say which configuration fields differ,
// in both values, not just that two hashes do.
func TestValidateConfigReportsDifferingFields(t *testing.T) {
	ckFields := FieldList("seed", uint64(5), "sample_fraction", 0.5, "strategy", 0)
	s := &State{
		Version:     Version,
		Fingerprint: FingerprintFields(ckFields),
		Config:      ckFields,
	}

	// The matching config validates.
	if err := s.ValidateConfig(ckFields); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}

	// One field off: the message names it with both values.
	scan := FieldList("seed", uint64(6), "sample_fraction", 0.5, "strategy", 0)
	err := s.ValidateConfig(scan)
	if err == nil {
		t.Fatal("mismatched seed accepted")
	}
	msg := err.Error()
	for _, want := range []string{"fingerprint mismatch", "seed: checkpoint 5, scan 6"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}
	if strings.Contains(msg, "sample_fraction") {
		t.Errorf("error %q names sample_fraction, which matches", msg)
	}

	// Two fields off: both are listed.
	scan = FieldList("seed", uint64(6), "sample_fraction", 0.25, "strategy", 0)
	msg = s.ValidateConfig(scan).Error()
	for _, want := range []string{"seed: checkpoint 5, scan 6", "sample_fraction: checkpoint 0.5, scan 0.25"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not contain %q", msg, want)
		}
	}

	// A field present on one side only is reported, not dropped.
	scan = FieldList("seed", uint64(5), "sample_fraction", 0.5, "strategy", 0, "tail_loss", 0.3)
	msg = s.ValidateConfig(scan).Error()
	if !strings.Contains(msg, "tail_loss: not recorded in checkpoint, scan 0.3") {
		t.Errorf("error %q does not report the checkpoint-missing field", msg)
	}

	// Checkpoints without a recorded field breakdown fall back to the
	// hash-only message instead of claiming nothing differs.
	old := &State{Version: Version, Fingerprint: "deadbeefdeadbeef"}
	msg = old.ValidateConfig(ckFields).Error()
	if !strings.Contains(msg, "fingerprint") || strings.Contains(msg, "differing fields") {
		t.Errorf("legacy checkpoint mismatch produced %q", msg)
	}

	// Completed checkpoints are still rejected as completed.
	done := &State{Version: Version, Fingerprint: FingerprintFields(ckFields), Completed: true}
	if err := done.ValidateConfig(ckFields); err == nil || !strings.Contains(err.Error(), "completed") {
		t.Errorf("completed checkpoint: err = %v", err)
	}
}
