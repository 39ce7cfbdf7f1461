package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"

	"iwscan/internal/events"
	"iwscan/internal/jobs"
)

// runJobs inspects an iwserve control-plane event journal: summary
// accounting, semantic validation (jobs.ValidateJournal) and Chrome
// trace-event export of the span tree.
func runJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	validate := fs.Bool("validate", false, "enforce journal invariants and trace-export validity; exit nonzero on violation")
	minDispatch := fs.Int("min-dispatch", 1, "with -validate: minimum dispatch-audit events per job that ran")
	jobID := fs.String("job", "", "restrict to one job's events (plus daemon lifecycle markers)")
	format := fs.String("fmt", "summary", "output format: summary or trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("jobs: want exactly one journal file, got %d args", fs.NArg())
	}
	if *format != "summary" && *format != "trace" {
		return fmt.Errorf("jobs: unknown -fmt %q (want summary or trace)", *format)
	}
	path := fs.Arg(0)

	evs, torn, err := events.ReadFile(path)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if torn > 0 {
		fmt.Fprintf(os.Stderr, "iwtrace jobs: %s: %d torn trailing bytes ignored\n", path, torn)
	}

	// Validation always runs over the full journal — a -job filter
	// narrows the output, not the invariants (a filtered slice would
	// have sequence gaps by construction).
	var sum jobs.JournalSummary
	if *validate {
		sum, err = jobs.ValidateJournal(evs, *minDispatch)
		if err != nil {
			return fmt.Errorf("jobs: journal invalid: %w", err)
		}
		var buf bytes.Buffer
		if err := events.WriteTraceEvents(&buf, evs); err != nil {
			return fmt.Errorf("jobs: trace export: %w", err)
		}
		if _, err := events.ValidateTraceEvents(buf.Bytes()); err != nil {
			return fmt.Errorf("jobs: trace export invalid: %w", err)
		}
	}

	if *jobID != "" {
		filtered := evs[:0:0]
		matched := 0
		for _, ev := range evs {
			switch {
			case ev.Job == *jobID:
				matched++
			case ev.Type != events.TypeDaemonStart && ev.Type != events.TypeServerShutdown:
				continue
			}
			filtered = append(filtered, ev)
		}
		if matched == 0 {
			return fmt.Errorf("jobs: no events for job %q", *jobID)
		}
		evs = filtered
	}

	if *format == "trace" {
		return events.WriteTraceEvents(os.Stdout, evs)
	}

	if !*validate {
		// Summary without validation: tally without enforcing.
		sum = tallyJournal(evs)
	} else if *jobID != "" {
		sum = tallyJournal(evs)
	}
	printJournalSummary(path, evs, torn, sum, *validate)
	return nil
}

// tallyJournal computes the summary counts without enforcing any
// invariant — used when -validate is off (or after a -job filter,
// whose sequence gaps the validator would reject).
func tallyJournal(evs []events.Event) jobs.JournalSummary {
	sum := jobs.JournalSummary{TypeCounts: map[string]int{}, TenantCounts: map[string]int{}}
	seen := map[string]bool{}
	for _, ev := range evs {
		sum.Events++
		sum.TypeCounts[ev.Type]++
		if ev.Tenant != "" {
			sum.TenantCounts[ev.Tenant]++
		}
		if ev.Job != "" && !seen[ev.Job] {
			seen[ev.Job] = true
		}
		switch ev.Type {
		case events.TypeDaemonStart:
			sum.Restarts++
		case events.TypeServerShutdown:
			sum.Shutdowns++
		case events.TypeDispatch:
			sum.Dispatches++
		case events.TypeSegmentStart:
			sum.Segments++
		case events.TypeCheckpointWrite:
			sum.Checkpoints++
		}
	}
	sum.Jobs = len(seen)
	return sum
}

func printJournalSummary(path string, evs []events.Event, torn int, sum jobs.JournalSummary, validated bool) {
	fmt.Printf("journal %s\n", path)
	if len(evs) > 0 {
		fmt.Printf("  sequences  %d..%d\n", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	fmt.Printf("  events     %d\n", sum.Events)
	fmt.Printf("  jobs       %d\n", sum.Jobs)
	fmt.Printf("  dispatches %d\n", sum.Dispatches)
	fmt.Printf("  segments   %d\n", sum.Segments)
	fmt.Printf("  restarts   %d  shutdowns %d  checkpoints %d\n", sum.Restarts, sum.Shutdowns, sum.Checkpoints)
	if torn > 0 {
		fmt.Printf("  torn tail  %d bytes\n", torn)
	}
	fmt.Printf("  by type:\n")
	for _, k := range sortedKeys(sum.TypeCounts) {
		fmt.Printf("    %-18s %d\n", k, sum.TypeCounts[k])
	}
	if len(sum.TenantCounts) > 0 {
		fmt.Printf("  by tenant:\n")
		for _, k := range sortedKeys(sum.TenantCounts) {
			fmt.Printf("    %-18s %d\n", k, sum.TenantCounts[k])
		}
	}
	if validated {
		fmt.Printf("  validation ok\n")
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
