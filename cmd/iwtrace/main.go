// Command iwtrace inspects flight-recorder records written by iwscan's
// -flight-dir (see internal/flight). It lists record directories,
// pretty-prints single records in any of their formats, validates the
// Chrome trace-event exports, and diffs two records of the same host —
// the workflow for answering "why did this probe go wrong, and what
// changed between these two runs?".
//
// Usage:
//
//	iwtrace list <dir>
//	    One summary line per record in the directory.
//
//	iwtrace show [-fmt txt|json|trace] <record.flight.json>
//	    Pretty-print one record: annotated narrative (default), the
//	    canonical JSON, or the Chrome trace-event JSON for Perfetto.
//
//	iwtrace validate <dir | record.flight.json ...>
//	    Check every record's trace-event export parses as valid Chrome
//	    trace-event JSON and equals, byte for byte, the .trace.json
//	    sidecar written at freeze time. Exits nonzero on the first
//	    invalid record, and on a directory holding none.
//
//	iwtrace diff <a.flight.json> <b.flight.json>
//	    Align two records of the same host and print the events unique
//	    to each side — e.g. a clean run against a tail-loss casualty.
//
//	iwtrace jobs [-validate] [-min-dispatch n] [-job id] [-fmt summary|trace] <events.jsonl>
//	    Inspect an iwserve control-plane event journal. The default
//	    summary prints event/job/dispatch counts per type and tenant;
//	    -fmt trace exports the span tree (job lifecycle -> segments ->
//	    shards) as Chrome trace-event JSON for Perfetto, optionally
//	    filtered to one job with -job. -validate additionally enforces
//	    the journal invariants (contiguous sequences, legal lifecycle
//	    edges, balanced spans, dispatch audits present — see
//	    jobs.ValidateJournal) and that the trace export parses.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iwscan/internal/events"
	"iwscan/internal/flight"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "list":
		err = runList(args[1:])
	case "show":
		err = runShow(args[1:])
	case "validate":
		err = runValidate(args[1:])
	case "diff":
		err = runDiff(args[1:])
	case "jobs":
		err = runJobs(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "iwtrace: unknown mode %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "iwtrace: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  iwtrace list <dir>
  iwtrace show [-fmt txt|json|trace] <record.flight.json>
  iwtrace validate <dir | record.flight.json ...>
  iwtrace diff <a.flight.json> <b.flight.json>
  iwtrace jobs [-validate] [-min-dispatch n] [-job id] [-fmt summary|trace] <events.jsonl>
`)
}

// records globs the flight records under dir, sorted by filename (the
// recorder's zero-padded sequence prefix makes that chronological).
func records(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.flight.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func runList(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("list wants exactly one directory")
	}
	paths, err := records(args[0])
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no flight records under %s", args[0])
	}
	fmt.Printf("%-40s %-18s %-8s %10s %7s %8s\n",
		"RECORD", "VERDICT", "TRIGGER", "DURATION", "EVENTS", "PACKETS")
	for _, p := range paths {
		rec, err := flight.Load(p)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".flight.json")
		trunc := ""
		if rec.EventsTruncated > 0 || rec.PacketsTruncated > 0 {
			trunc = "  (truncated)"
		}
		fmt.Printf("%-40s %-18s %-8s %10s %7d %8d%s\n",
			name, rec.Verdict, rec.Trigger, rec.Duration(),
			len(rec.Events), len(rec.Packets), trunc)
	}
	return nil
}

func runShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	format := fs.String("fmt", "txt", "output format: txt, json or trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show wants exactly one record file")
	}
	rec, err := flight.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	switch *format {
	case "txt":
		return rec.WriteNarrative(os.Stdout)
	case "trace":
		return rec.WriteTraceEvents(os.Stdout)
	case "json":
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	default:
		return fmt.Errorf("unknown -fmt %q (want txt, json or trace)", *format)
	}
}

// validateRecord regenerates the record's trace-event export and runs
// it through the format checker, returning the event count.
func validateRecord(path string) (int, error) {
	rec, err := flight.Load(path)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := rec.WriteTraceEvents(&buf); err != nil {
		return 0, err
	}
	n, err := events.ValidateTraceEvents(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	// The sidecar written at freeze time must agree with a fresh export.
	sidecar := strings.TrimSuffix(path, ".flight.json") + ".trace.json"
	if data, rerr := os.ReadFile(sidecar); rerr == nil && !bytes.Equal(data, buf.Bytes()) {
		return 0, fmt.Errorf("%s: sidecar %s differs from a fresh trace export of the record", path, sidecar)
	}
	return n, nil
}

func expandArgs(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			sub, err := records(a)
			if err != nil {
				return nil, err
			}
			paths = append(paths, sub...)
		} else {
			paths = append(paths, a)
		}
	}
	return paths, nil
}

func runValidate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("validate wants a directory or record files")
	}
	paths, err := expandArgs(args)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no flight records found")
	}
	total := 0
	for _, p := range paths {
		n, err := validateRecord(p)
		if err != nil {
			return err
		}
		total += n
	}
	fmt.Printf("%d records valid (%d trace events)\n", len(paths), total)
	return nil
}

// eventKey is an event's identity for diffing: everything except
// timestamps, ports and sequence numbers, so the same exchange at a
// different virtual time (or from a different ephemeral port) aligns.
func eventKey(ev *flight.RecordEvent) string {
	return fmt.Sprintf("%s|%s|%s|%s>%s|%s|%s|len=%d",
		ev.Type, ev.Op, ev.Note, ev.Src, ev.Dst,
		ev.Proto, ev.Flags, ev.Len)
}

func runDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff wants exactly two record files")
	}
	a, err := flight.Load(args[0])
	if err != nil {
		return err
	}
	b, err := flight.Load(args[1])
	if err != nil {
		return err
	}
	if a.Target != b.Target {
		fmt.Printf("note: records are for different hosts (%s vs %s)\n", a.Target, b.Target)
	}
	fmt.Printf("--- %s: verdict %s (trigger %s), %d events, %d packets, %s\n",
		args[0], a.Verdict, a.Trigger, len(a.Events), len(a.Packets), a.Duration())
	fmt.Printf("+++ %s: verdict %s (trigger %s), %d events, %d packets, %s\n",
		args[1], b.Verdict, b.Trigger, len(b.Events), len(b.Packets), b.Duration())

	// Sequence numbers and ephemeral ports differ across runs even for
	// identical exchanges, so the alignment key deliberately drops them
	// along with timestamps; the printed lines keep everything.
	ak := make([]string, len(a.Events))
	bk := make([]string, len(b.Events))
	for i := range a.Events {
		ak[i] = eventKey(&a.Events[i])
	}
	for i := range b.Events {
		bk[i] = eventKey(&b.Events[i])
	}
	keep := lcs(ak, bk)
	same := 0
	i, j := 0, 0
	for _, m := range keep {
		for i < m.a {
			fmt.Printf("- %s\n", strings.TrimRight(a.Events[i].Line(), "\n"))
			i++
		}
		for j < m.b {
			fmt.Printf("+ %s\n", strings.TrimRight(b.Events[j].Line(), "\n"))
			j++
		}
		same++
		i++
		j++
	}
	for i < len(a.Events) {
		fmt.Printf("- %s\n", strings.TrimRight(a.Events[i].Line(), "\n"))
		i++
	}
	for j < len(b.Events) {
		fmt.Printf("+ %s\n", strings.TrimRight(b.Events[j].Line(), "\n"))
		j++
	}
	fmt.Printf("%d events common, %d only in first, %d only in second\n",
		same, len(a.Events)-same, len(b.Events)-same)
	return nil
}

type match struct{ a, b int }

// lcs returns the index pairs of a longest common subsequence of the
// two key slices. Records cap out at the recorder's event ring (1024
// by default), so the quadratic table stays small.
func lcs(a, b []string) []match {
	n, m := len(a), len(b)
	table := make([]int, (n+1)*(m+1))
	idx := func(i, j int) int { return i*(m+1) + j }
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				table[idx(i, j)] = table[idx(i+1, j+1)] + 1
			} else {
				table[idx(i, j)] = max(table[idx(i+1, j)], table[idx(i, j+1)])
			}
		}
	}
	var out []match
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case a[i] == b[j]:
			out = append(out, match{i, j})
			i++
			j++
		case table[idx(i+1, j)] >= table[idx(i, j+1)]:
			i++
		default:
			j++
		}
	}
	return out
}
