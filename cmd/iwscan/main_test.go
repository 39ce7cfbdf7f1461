package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/checkpoint"
	"iwscan/internal/events"
	"iwscan/internal/flight"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/timeseries"
)

// runMainEnv turns the test binary into iwscan: TestMain runs main()
// instead of the tests when it is set, so each test below execs
// os.Args[0] with the exact command line it checks.
const runMainEnv = "IWSCAN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// iwscan runs the command with args and fails the test on a non-zero exit.
func iwscan(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("iwscan %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// TestCLIRejectsFlagConflicts: every flag combination iwscan refuses
// exits non-zero with its message before scanning starts (-out is never
// created).
func TestCLIRejectsFlagConflicts(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-strategy", "ftp"}, `unknown strategy "ftp"`},
		{[]string{"-sample", "0"}, "-sample 0 out of range"},
		{[]string{"-parallel", "2", "-pcap", "x.pcap"}, "-parallel and -pcap are incompatible"},
		{[]string{"-parallel", "2", "-shards", "2"}, "-parallel assigns shard numbers itself"},
		{[]string{"-parallel", "2", "-checkpoint", "x.ck"}, "-checkpoint/-resume track one engine per process"},
		{[]string{"-parallel", "2", "-flight-dir", "fr"}, "the flight recorder observes one simulation"},
		{[]string{"-alexa", "10", "-time-limit", "1s"}, "-checkpoint/-resume/-time-limit apply to address-space scans"},
		{[]string{"-smart-update"}, "need -smart-model"},
		{[]string{"-smart-model", "m.iwsm", "-hitlist", "h.csv"}, "different target-selection modes"},
		{[]string{"-alexa", "10", "-hitlist", "h.csv"}, "-smart-model/-hitlist apply to address-space scans"},
		{[]string{"-smart-model", "m.iwsm", "-smart-threshold", "1"}, "-smart-threshold 1 out of range"},
		{[]string{"-smart-model", "m.iwsm", "-smart-explore", "1"}, "-smart-explore 1 out of range"},
		{[]string{"-alexa", "10", "-telemetry-out", "t.jsonl"}, "-telemetry-out apply to address-space scans"},
		{[]string{"-alexa", "10", "-pcap", "x.pcap"}, "the flight recorder, -pcap,"},
		{[]string{"-sample", "0.001", "-pcap", filepath.Join("missing", "x.pcap")}, "-pcap: open missing/x.pcap"},
		{[]string{"-flight-sample", "2", "-flight-dir", "fr"}, "-flight-sample 2 out of range"},
		{[]string{"-flight-on", "ghost"}, "flight recording needs somewhere to surface records"},
		{[]string{"-flight-on", "bogus", "-flight-dir", "fr"}, `-flight-on: unknown verdict "bogus"`},
	} {
		dir := t.TempDir()
		out := filepath.Join(dir, "out.csv")
		cmd := exec.Command(os.Args[0], append(tc.args, "-out", out)...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		msg, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(msg), tc.want) {
			t.Errorf("iwscan %s: err = %v, output %q; want failure mentioning %q",
				strings.Join(tc.args, " "), err, msg, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("iwscan %s: -out exists (stat err %v); the refusal came after the scan began",
				strings.Join(tc.args, " "), err)
		}
	}
}

// TestCLIResumeSplicesCrashTail is the crash-resume gate: a scan killed
// between two checkpoints leaves records past the last checkpoint's
// output_bytes in -out, and telemetry lines past its telemetry_bytes in
// -telemetry-out, the final one of each torn. -resume must cut both and
// continue, so -out ends byte-identical to an uninterrupted run's in
// every output format and -telemetry-out reads as one stream on one
// clock.
func TestCLIResumeSplicesCrashTail(t *testing.T) {
	t.Parallel()
	for _, format := range []string{"csv", "jsonl", "bin"} {
		t.Run(format, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ref, out, ck := filepath.Join(dir, "ref"), filepath.Join(dir, "out"), filepath.Join(dir, "scan.ck")
			refTel, tel := filepath.Join(dir, "ref.jsonl"), filepath.Join(dir, "tel.jsonl")
			scan := func(extra ...string) []string {
				return append([]string{"-sample", "0.004", "-seed", "5", "-rate", "100", "-format", format, "-q"}, extra...)
			}
			iwscan(t, scan("-out", ref, "-telemetry-out", refTel)...)
			iwscan(t, scan("-out", out, "-telemetry-out", tel, "-checkpoint", ck, "-time-limit", "12s")...)
			want, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			telSeg, err := os.ReadFile(tel)
			if err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Load(ck)
			if err != nil {
				t.Fatal(err)
			}
			if st.OutputBytes == nil || *st.OutputBytes != int64(len(seg)) {
				t.Fatalf("checkpoint output_bytes = %v, want the file's %d bytes", st.OutputBytes, len(seg))
			}
			if st.TelemetryBytes == nil || *st.TelemetryBytes != int64(len(telSeg)) {
				t.Fatalf("checkpoint telemetry_bytes = %v, want the file's %d bytes", st.TelemetryBytes, len(telSeg))
			}
			// The crash tail: the next records an uninterrupted run
			// writes, cut off mid-record.
			const tail = 1000
			if !bytes.Equal(seg, want[:len(seg)]) || len(seg)+tail >= len(want) {
				t.Fatalf("time-limited segment wrote %d bytes, want a strict prefix of the %d-byte reference", len(seg), len(want))
			}
			if err := os.WriteFile(out, want[:len(seg)+tail], 0o644); err != nil {
				t.Fatal(err)
			}
			// The telemetry crash tail: the uninterrupted run's next
			// lines, the last one cut in half.
			refLines, err := os.ReadFile(refTel)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(refLines, []byte("\n"))
			kept := bytes.Count(telSeg, []byte("\n"))
			if len(lines) < kept+4 {
				t.Fatalf("reference telemetry has %d lines, want more than the segment's %d", len(lines), kept)
			}
			telTail := bytes.Join(lines[kept:kept+3], nil)
			telTail = append(telTail, lines[kept+3][:len(lines[kept+3])/2]...)
			if err := os.WriteFile(tel, append(telSeg, telTail...), 0o644); err != nil {
				t.Fatal(err)
			}
			iwscan(t, scan("-out", out, "-telemetry-out", tel, "-resume", ck)...)
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed output is %d bytes, uninterrupted run %d: not byte-identical", len(got), len(want))
			}
			if _, err := output.ReadRecordsFile(out); err != nil {
				t.Fatal(err)
			}

			f, err := os.Open(tel)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			samples, anomalies, err := timeseries.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := timeseries.VerifyStream(samples, anomalies, 1, false); err != nil {
				t.Fatal(err)
			}
			seen := make(map[[2]uint64]bool)
			for i, s := range samples {
				key := [2]uint64{uint64(s.Shard), s.Index}
				if seen[key] {
					t.Fatalf("shard %d index %d appears twice", s.Shard, s.Index)
				}
				seen[key] = true
				// The segment stopped at its time limit and the resume
				// took over there: one clock, no gap, no overlap.
				if i > 0 && s.StartNS != samples[i-1].EndNS {
					t.Fatalf("sample %d starts at %d, the previous ended at %d", i, s.StartNS, samples[i-1].EndNS)
				}
			}
		})
	}
}

// TestCLIResumeRefusesUnsplicedTelemetry: a checkpoint written without
// -telemetry-out records no telemetry length, so a resume that names an
// existing regular file as -telemetry-out is refused by name and leaves
// the file as it was.
func TestCLIResumeRefusesUnsplicedTelemetry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	out, ck, tel := filepath.Join(dir, "out.csv"), filepath.Join(dir, "scan.ck"), filepath.Join(dir, "tel.jsonl")
	scan := []string{"-sample", "0.004", "-seed", "5", "-rate", "100", "-q", "-out", out}
	iwscan(t, append(scan, "-checkpoint", ck, "-time-limit", "2s")...)
	const before = "{\"type\":\"sample\"}\n"
	if err := os.WriteFile(tel, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append(scan, "-resume", ck, "-telemetry-out", tel)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	msg, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(msg), checkpoint.ErrNoTelemetryBytes.Error()) {
		t.Fatalf("resume: err = %v, output %q; want a refusal naming telemetry_bytes", err, msg)
	}
	if got, _ := os.ReadFile(tel); string(got) != before {
		t.Fatalf("the refused resume rewrote -telemetry-out: %q", got)
	}
}

// TestCLIResumeStreamOut: a scan whose -out is a stream (/dev/null)
// records no output length in its checkpoint. Resuming it into a stream
// appends and completes. Resuming it into a regular file, which would
// lack its preamble, is refused by name: an existing file is left as it
// was, and a missing one is not created.
func TestCLIResumeStreamOut(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ck, out := filepath.Join(dir, "scan.ck"), filepath.Join(dir, "out.csv")
	scan := []string{"-sample", "0.004", "-seed", "5", "-rate", "100", "-q"}
	iwscan(t, append(scan, "-out", os.DevNull, "-checkpoint", ck, "-time-limit", "2s")...)
	st, err := checkpoint.Load(ck)
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputBytes != nil {
		t.Fatalf("a scan into %s recorded output_bytes %d", os.DevNull, *st.OutputBytes)
	}

	const before = "kept\n"
	if err := os.WriteFile(out, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append(scan, "-resume", ck, "-out", out)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	msg, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(msg), checkpoint.ErrNoOutputBytes.Error()) {
		t.Fatalf("resume into a regular file: err = %v, output %q; want a refusal naming output_bytes", err, msg)
	}
	if got, _ := os.ReadFile(out); string(got) != before {
		t.Fatalf("the refused resume rewrote -out: %q", got)
	}
	missing := filepath.Join(dir, "new.csv")
	cmd = exec.Command(os.Args[0], append(scan, "-resume", ck, "-out", missing)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if msg, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(msg), checkpoint.ErrNoOutputBytes.Error()) {
		t.Fatalf("resume into a new file: err = %v, output %q; want a refusal naming output_bytes", err, msg)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("the refused resume created -out (stat: %v)", err)
	}

	iwscan(t, append(scan, "-resume", ck, "-out", os.DevNull)...)
}

// TestCLIFlightDir is the forensic-pipeline gate: a fixed-seed adversity
// scan with anomaly triggers armed must freeze at least one record, every
// record must load, and each record's trace export must validate and
// equal the .trace.json sidecar written at freeze time.
func TestCLIFlightDir(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	iwscan(t, "-sample", "0.004", "-seed", "3", "-loss", "0.15", "-tail-loss", "0.3",
		"-flight-dir", dir, "-flight-on", "ghost,byte-limit-misread", "-out", os.DevNull, "-q")
	paths, err := filepath.Glob(filepath.Join(dir, "*.flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("the armed scan froze no flight record")
	}
	for _, p := range paths {
		rec, err := flight.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTraceEvents(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := events.ValidateTraceEvents(buf.Bytes()); err != nil {
			t.Errorf("%s: trace export invalid: %v", filepath.Base(p), err)
		}
		sidecar, err := os.ReadFile(strings.TrimSuffix(p, ".flight.json") + ".trace.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sidecar, buf.Bytes()) {
			t.Errorf("%s: .trace.json sidecar differs from a fresh export", filepath.Base(p))
		}
	}
}

// TestCLIPcap is the packet-capture gate: -pcap streams every packet
// the network sent, arming the flight recorder changes no byte of the
// capture, and each frozen record's .pcap sidecar is its probe's slice
// of the same stream: the same packets, in order, with equal times.
func TestCLIPcap(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plain, armed := filepath.Join(dir, "plain.pcap"), filepath.Join(dir, "armed.pcap")
	met, fr := filepath.Join(dir, "m.json"), filepath.Join(dir, "fr")
	scan := []string{"-sample", "0.004", "-seed", "3", "-out", os.DevNull, "-q"}
	iwscan(t, append(scan, "-pcap", plain, "-metrics-out", met)...)
	iwscan(t, append(scan, "-pcap", armed, "-flight-dir", fr, "-flight-on", "all", "-flight-max", "0")...)

	capture, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(armed); err != nil || !bytes.Equal(b, capture) {
		t.Fatalf("capture with the flight recorder armed differs (err %v)", err)
	}
	pkts, err := flight.ReadPcap(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(met)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatal(err)
	}
	if sent := snap.Counters["netsim.packets_sent"]; int64(len(pkts)) != sent || sent == 0 {
		t.Fatalf("capture holds %d packets, netsim.packets_sent = %d", len(pkts), sent)
	}

	// Positions of each timestamp in the capture, for the in-order
	// subsequence match below.
	at := make(map[netsim.Time][]int)
	for i, p := range pkts {
		at[p.At] = append(at[p.At], i)
	}
	paths, err := filepath.Glob(filepath.Join(fr, "*.flight.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("armed scan froze no records (err %v)", err)
	}
	for _, path := range paths {
		rec, err := flight.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Packets) == 0 {
			t.Fatalf("%s: no sidecar packets", filepath.Base(path))
		}
		prev := -1
		for k, p := range rec.Packets {
			next := -1
			for _, i := range at[p.At] {
				if i > prev && bytes.Equal(pkts[i].Data, p.Data) {
					next = i
					break
				}
			}
			if next < 0 {
				t.Fatalf("%s: sidecar packet %d (at %v) is not in the scan capture after packet %d",
					filepath.Base(path), k, p.At, prev)
			}
			prev = next
		}
	}
}

// TestCLITelemetryOut is the telemetry gate: a fixed-seed 4-shard scan
// under tail loss streams JSONL whose every line parses, whose per-shard
// sample indices are contiguous, which holds samples from all four
// shards, and in which tail loss at 0.3 trips at least one anomaly.
func TestCLITelemetryOut(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	iwscan(t, "-sample", "0.02", "-seed", "3", "-tail-loss", "0.3", "-parallel", "4",
		"-telemetry-out", path, "-out", os.DevNull, "-q")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, anomalies, err := timeseries.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := timeseries.VerifyStream(samples, anomalies, 4, true); err != nil {
		t.Fatal(err)
	}
}

// TestCLISmartUpdate is the topology-aware-scanning gate: a fixed-seed
// full scan trains a fresh model with -smart-update, and a rescan of the
// same sample under it must save >= 30% of the probes while re-finding
// >= 95% of the full scan's responsive hosts.
func TestCLISmartUpdate(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	model := filepath.Join(dir, "model.iwsm")
	fullPath, smartPath := filepath.Join(dir, "full.iwb"), filepath.Join(dir, "smart.iwb")
	iwscan(t, "-sample", "0.004", "-seed", "11", "-format", "bin", "-out", fullPath,
		"-smart-model", model, "-smart-update", "-q")
	iwscan(t, "-sample", "0.004", "-seed", "11", "-format", "bin", "-out", smartPath,
		"-smart-model", model, "-smart-threshold", "0.01", "-smart-explore", "-1", "-q")
	full, err := output.ReadRecordsFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := output.ReadRecordsFile(smartPath)
	if err != nil {
		t.Fatal(err)
	}
	fullHosts, smartHosts := len(prefixtree.Hitlist(full)), len(prefixtree.Hitlist(smart))
	if fullHosts == 0 {
		t.Fatalf("full scan: %d probes, no responsive hosts", len(full))
	}
	saved := 1 - float64(len(smart))/float64(len(full))
	found := float64(smartHosts) / float64(fullHosts)
	t.Logf("full %d probes / %d hosts, smart %d probes / %d hosts: %.1f%% saved, %.1f%% found",
		len(full), fullHosts, len(smart), smartHosts, 100*saved, 100*found)
	if saved < 0.30 {
		t.Errorf("probes saved %.1f%%, want >= 30%%", 100*saved)
	}
	if found < 0.95 {
		t.Errorf("hosts found %.1f%%, want >= 95%%", 100*found)
	}
}
