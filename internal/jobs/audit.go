package jobs

import (
	"fmt"
	"sort"

	"iwscan/internal/events"
)

// Journal validation: the jobs layer owns the semantic rules (which
// lifecycle edges are legal, how spans nest, what a dispatch must
// record) while internal/events owns the syntactic ones (sequence
// contiguity, torn tails). iwtrace jobs -validate runs this over a
// journal file; the jobs tests run it over the journals they leave.

// JournalSummary is the validator's accounting, printed by the
// iwtrace jobs verb.
type JournalSummary struct {
	Events       int
	Jobs         int
	Dispatches   int
	Segments     int
	Restarts     int // daemon_start events
	Shutdowns    int // server_shutdown events
	Checkpoints  int
	TypeCounts   map[string]int
	TenantCounts map[string]int
}

// ValidateJournal checks a control-plane event journal's invariants:
//
//   - sequence numbers contiguous and wall clocks non-decreasing;
//   - every job introduced by job_submitted (or recovery, for jobs
//     predating the journal) before any other event names it;
//   - every state_change a legal edge of the lifecycle state machine,
//     with nothing after a terminal edge except checkpoint writes and
//     recovery records;
//   - segment spans balanced — no double-open, no end-without-start,
//     and none left open across a clean server_shutdown (a crash tail
//     may leave spans open; the next recovery accounts for them);
//   - per tenant, vtime settlements never exceed charges;
//   - every job that ran has at least minDispatch dispatch-audit
//     events recording its candidates.
func ValidateJournal(evs []events.Event, minDispatch int) (JournalSummary, error) {
	sum := JournalSummary{TypeCounts: map[string]int{}, TenantCounts: map[string]int{}}
	if len(evs) == 0 {
		return sum, fmt.Errorf("journal is empty")
	}
	jobState := map[string]State{}
	jobTerminal := map[string]bool{}
	jobDispatches := map[string]int{}
	jobSegments := map[string]int{}
	openSpans := map[string]uint64{} // segment span -> seq that opened it
	charges := map[string]int{}
	settles := map[string]int{}
	lastWall := int64(0)
	lastSeq := evs[0].Seq - 1

	for _, ev := range evs {
		if ev.Seq != lastSeq+1 {
			return sum, fmt.Errorf("seq %d: sequence break (previous %d)", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.WallNS < lastWall {
			return sum, fmt.Errorf("seq %d: wall clock went backwards (%d after %d)", ev.Seq, ev.WallNS, lastWall)
		}
		lastWall = ev.WallNS
		sum.Events++
		sum.TypeCounts[ev.Type]++
		if ev.Tenant != "" {
			sum.TenantCounts[ev.Tenant]++
		}

		if ev.Job != "" {
			_, known := jobState[ev.Job]
			switch ev.Type {
			case events.TypeJobSubmitted:
				if known {
					return sum, fmt.Errorf("seq %d: job %s submitted twice", ev.Seq, ev.Job)
				}
				jobState[ev.Job] = StateQueued
			case events.TypeRecovery:
				st, _ := ev.Fields["state"].(string)
				if st == "" {
					return sum, fmt.Errorf("seq %d: recovery event for %s missing state", ev.Seq, ev.Job)
				}
				jobState[ev.Job] = State(st)
				jobTerminal[ev.Job] = State(st).Terminal()
			default:
				if !known {
					return sum, fmt.Errorf("seq %d: %s event for %s before its job_submitted/recovery", ev.Seq, ev.Type, ev.Job)
				}
			}
		}

		switch ev.Type {
		case events.TypeDaemonStart:
			sum.Restarts++
		case events.TypeServerShutdown:
			sum.Shutdowns++
			if len(openSpans) > 0 {
				for span, at := range openSpans {
					return sum, fmt.Errorf("seq %d: clean shutdown with segment span %s still open (since seq %d)", ev.Seq, span, at)
				}
			}
		case events.TypeCheckpointWrite:
			sum.Checkpoints++
		case events.TypeStateChange:
			from, _ := ev.Fields["from"].(string)
			to, _ := ev.Fields["to"].(string)
			if from == "" || to == "" {
				return sum, fmt.Errorf("seq %d: state_change missing from/to", ev.Seq)
			}
			if jobTerminal[ev.Job] {
				return sum, fmt.Errorf("seq %d: state_change on %s after terminal state", ev.Seq, ev.Job)
			}
			if cur := jobState[ev.Job]; string(cur) != from {
				return sum, fmt.Errorf("seq %d: %s state_change claims from=%s but journal shows %s", ev.Seq, ev.Job, from, cur)
			}
			if !CanTransition(State(from), State(to)) {
				return sum, fmt.Errorf("seq %d: illegal transition %s -> %s for %s", ev.Seq, from, to, ev.Job)
			}
			jobState[ev.Job] = State(to)
			if State(to).Terminal() {
				jobTerminal[ev.Job] = true
				if ev.Phase != events.PhaseEnd {
					return sum, fmt.Errorf("seq %d: terminal state_change for %s does not close the job span", ev.Seq, ev.Job)
				}
			}
		case events.TypeDispatch:
			sum.Dispatches++
			jobDispatches[ev.Job]++
			if _, ok := ev.Fields["candidates"]; !ok {
				return sum, fmt.Errorf("seq %d: dispatch event missing candidates", ev.Seq)
			}
		case events.TypeVtimeCharge:
			charges[ev.Tenant]++
		case events.TypeVtimeSettle:
			settles[ev.Tenant]++
		case events.TypeSegmentStart:
			if at, open := openSpans[ev.Span]; open {
				return sum, fmt.Errorf("seq %d: segment span %s opened twice (first at seq %d)", ev.Seq, ev.Span, at)
			}
			openSpans[ev.Span] = ev.Seq
			sum.Segments++
			jobSegments[ev.Job]++
		case events.TypeSegmentEnd:
			if _, open := openSpans[ev.Span]; !open {
				return sum, fmt.Errorf("seq %d: segment_end for %s without a start", ev.Seq, ev.Span)
			}
			delete(openSpans, ev.Span)
		}
	}

	for tenant, n := range settles {
		if n > charges[tenant] {
			return sum, fmt.Errorf("tenant %s: %d vtime settlements exceed %d charges", tenant, n, charges[tenant])
		}
	}
	ids := make([]string, 0, len(jobSegments))
	for id := range jobSegments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if jobDispatches[id] < minDispatch {
			return sum, fmt.Errorf("job %s ran %d segments but has %d dispatch-audit events (want >= %d)",
				id, jobSegments[id], jobDispatches[id], minDispatch)
		}
	}
	sum.Jobs = len(jobState)
	return sum, nil
}
