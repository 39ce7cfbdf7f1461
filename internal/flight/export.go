package flight

import (
	"encoding/json"
	"fmt"
	"io"

	"iwscan/internal/events"
)

// Track layout of the Perfetto export: one process per record, with a
// thread per event source so the timeline reads as parallel lanes.
const (
	tidPhases    = 1
	tidPackets   = 2
	tidEstimator = 3
	tidServer    = 4
)

// WriteTraceEvents exports the record as Chrome trace-event JSON
// (events.TraceFile), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: probe phases become duration spans on one track,
// packet/estimator/server events become instants on parallel tracks.
// Timestamps are relative to the record's start.
func (r *Record) WriteTraceEvents(w io.Writer) error {
	us := func(atNS int64) float64 { return float64(atNS-r.BeganNS) / 1e3 }
	evs := []events.TraceEvent{
		meta("process_name", 0, map[string]any{"name": fmt.Sprintf("flight %s [%s]", r.Target, r.Verdict)}),
		meta("thread_name", tidPhases, map[string]any{"name": "phases"}),
		meta("thread_name", tidPackets, map[string]any{"name": "packets"}),
		meta("thread_name", tidEstimator, map[string]any{"name": "estimator"}),
		meta("thread_name", tidServer, map[string]any{"name": "server"}),
	}

	// Phase events become back-to-back spans: each phase lasts until
	// the next transition (or the end of the record). Track the open
	// span by index — appends may reallocate evs.
	openPhase := -1
	closePhase := func(endNS int64) {
		if openPhase >= 0 {
			ev := &evs[openPhase]
			ev.Dur = us(endNS) - ev.Ts
			if ev.Dur < 0 {
				ev.Dur = 0
			}
			openPhase = -1
		}
	}
	for i := range r.Events {
		ev := &r.Events[i]
		switch ev.Type {
		case "phase":
			closePhase(ev.AtNS)
			evs = append(evs, events.TraceEvent{
				Name: ev.Note, Phase: "X", Ts: us(ev.AtNS), Pid: 1, Tid: tidPhases,
			})
			openPhase = len(evs) - 1
		case "packet":
			args := map[string]any{
				"src": fmt.Sprintf("%s:%d", ev.Src, ev.SrcPort),
				"dst": fmt.Sprintf("%s:%d", ev.Dst, ev.DstPort),
				"len": ev.Len,
			}
			if ev.Proto == "tcp" {
				args["flags"] = ev.Flags
				args["seq"] = ev.Seq
				args["ack"] = ev.Ack
			}
			evs = append(evs, events.TraceEvent{
				Name: ev.Op, Phase: "i", Ts: us(ev.AtNS), Pid: 1, Tid: tidPackets,
				Scope: "t", Args: args,
			})
		case "segment":
			evs = append(evs, events.TraceEvent{
				Name: "segment " + ev.Note, Phase: "i", Ts: us(ev.AtNS), Pid: 1, Tid: tidEstimator,
				Scope: "t", Args: map[string]any{"off": ev.A, "len": ev.B},
			})
		case "step":
			evs = append(evs, events.TraceEvent{
				Name: ev.Note, Phase: "i", Ts: us(ev.AtNS), Pid: 1, Tid: tidEstimator,
				Scope: "t", Args: map[string]any{"a": ev.A, "b": ev.B},
			})
		case "stack":
			evs = append(evs, events.TraceEvent{
				Name: ev.Note, Phase: "i", Ts: us(ev.AtNS), Pid: 1, Tid: tidServer,
				Scope: "t", Args: map[string]any{"a": ev.A, "b": ev.B},
			})
		case "verdict":
			closePhase(ev.AtNS)
			evs = append(evs, events.TraceEvent{
				Name: "verdict: " + ev.Note, Phase: "i", Ts: us(ev.AtNS), Pid: 1, Tid: tidPhases,
				Scope: "p",
			})
		}
	}
	closePhase(r.EndedNS)

	enc := json.NewEncoder(w)
	return enc.Encode(events.TraceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

func meta(name string, tid int, args map[string]any) events.TraceEvent {
	return events.TraceEvent{Name: name, Phase: "M", Pid: 1, Tid: tid, Args: args}
}

// WriteNarrative renders the record as a tcpdump-style annotated text
// timeline: packets interleaved with estimator state and the server's
// own annotations, one line per event.
func (r *Record) WriteNarrative(w io.Writer) error {
	fmt.Fprintf(w, "flight record: target %s\n", r.Target)
	fmt.Fprintf(w, "verdict: %s (trigger: %s)\n", r.Verdict, r.Trigger)
	if r.Detail != "" {
		fmt.Fprintf(w, "detail: %s\n", r.Detail)
	}
	fmt.Fprintf(w, "timeline: %.6fs .. %.6fs (%d events, %d packets captured)\n",
		float64(r.BeganNS)/1e9, float64(r.EndedNS)/1e9, len(r.Events), len(r.Packets))
	if r.EventsTruncated > 0 || r.PacketsTruncated > 0 {
		fmt.Fprintf(w, "TRUNCATED: %d oldest events overwritten, %d packets not captured\n",
			r.EventsTruncated, r.PacketsTruncated)
	}
	fmt.Fprintln(w)
	for i := range r.Events {
		if _, err := fmt.Fprintln(w, r.Events[i].Line()); err != nil {
			return err
		}
	}
	return nil
}

// Line renders the event as one narrative line.
func (e *RecordEvent) Line() string {
	t := float64(e.AtNS) / 1e9
	switch e.Type {
	case "phase":
		return fmt.Sprintf("%12.6f  --- phase %s ---", t, e.Note)
	case "packet":
		label := e.Op
		if len(label) > 5 && label[:5] == "drop(" {
			label = "DROP " + label[5:len(label)-1] // drop(loss) -> DROP loss
		}
		if e.Proto != "tcp" {
			return fmt.Sprintf("%12.6f  %-14s %s > %s: %s, length %d",
				t, label, e.Src, e.Dst, e.Proto, e.Len)
		}
		return fmt.Sprintf("%12.6f  %-14s %s.%d > %s.%d: Flags [%s], seq %d, ack %d, length %d",
			t, label, e.Src, e.SrcPort, e.Dst, e.DstPort, e.Flags, e.Seq, e.Ack, e.Len)
	case "segment":
		return fmt.Sprintf("%12.6f  estimator      segment %s: bytes [%d,%d)",
			t, e.Note, e.A, e.A+e.B)
	case "step":
		return fmt.Sprintf("%12.6f  estimator      %s (%d, %d)", t, e.Note, e.A, e.B)
	case "stack":
		return fmt.Sprintf("%12.6f  server         %s %s: %s (%d, %d)",
			t, e.Src, e.Dst, e.Note, e.A, e.B)
	case "verdict":
		return fmt.Sprintf("%12.6f  === verdict %s ===", t, e.Note)
	default:
		return fmt.Sprintf("%12.6f  %s %s", t, e.Type, e.Note)
	}
}
