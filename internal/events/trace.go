package events

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the one schema both exporters write: this package's journal span tree
// and internal/flight's per-probe records. Timestamps and durations are
// microseconds.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level trace-event document.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ValidateTraceEvents checks that data parses as Chrome trace-event
// JSON: a traceEvents array whose entries all carry a name and a legal
// phase, with non-negative timestamps and durations. It returns the
// number of non-metadata events.
func ValidateTraceEvents(data []byte) (int, error) {
	var tf struct {
		TraceEvents []struct {
			Name  string   `json:"name"`
			Phase string   `json:"ph"`
			Ts    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, fmt.Errorf("not valid JSON: %w", err)
	}
	if tf.TraceEvents == nil {
		return 0, fmt.Errorf("missing traceEvents array")
	}
	count := 0
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return 0, fmt.Errorf("event %d: empty name", i)
		}
		switch ev.Phase {
		case "M":
			continue
		case "X", "i", "I", "B", "E", "C":
		default:
			return 0, fmt.Errorf("event %d (%q): unknown phase %q", i, ev.Name, ev.Phase)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return 0, fmt.Errorf("event %d (%q): missing or negative ts", i, ev.Name)
		}
		if ev.Phase == "X" && ev.Dur != nil && *ev.Dur < 0 {
			return 0, fmt.Errorf("event %d (%q): negative dur", i, ev.Name)
		}
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("no events")
	}
	return count, nil
}

// spanName renders a span id ("seg:job/3") as a human track label.
func spanName(ev Event) string {
	switch ev.Type {
	case TypeJobSubmitted:
		return "job " + ev.Job
	case TypeSegmentStart, TypeSegmentEnd:
		return "segment"
	case TypeShardStart, TypeShardEnd:
		return "shard"
	}
	if ev.Phase == PhaseEnd && ev.Type == TypeStateChange {
		return "job " + ev.Job
	}
	return ev.Type
}

// WriteTraceEvents exports journal events as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// tenant becomes a process, each of its jobs a thread; scheduler-wide
// events (daemon lifecycle, dispatch decisions with no surviving job
// attribution) land on a dedicated "scheduler" process. Span begin/end
// events become B/E pairs (never Dur), everything else an instant;
// timestamps are microseconds relative to the first event. Spans left
// open at the end of the journal (a crash tail) are closed at the
// final timestamp so viewers render them.
func WriteTraceEvents(w io.Writer, evs []Event) error {
	if len(evs) == 0 {
		return fmt.Errorf("no events to export")
	}
	base := evs[0].WallNS
	last := evs[len(evs)-1].WallNS
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	// Stable pid per tenant (first-appearance order), tid per job.
	pids := map[string]int{"": 0} // scheduler track
	tids := map[string]int{"": 0}
	tenantOf := map[string]string{}
	for _, ev := range evs {
		if ev.Tenant != "" {
			if _, ok := pids[ev.Tenant]; !ok {
				pids[ev.Tenant] = len(pids)
			}
		}
		if ev.Job != "" {
			if _, ok := tids[ev.Job]; !ok {
				tids[ev.Job] = len(tids)
			}
			if ev.Tenant != "" {
				tenantOf[ev.Job] = ev.Tenant
			}
		}
	}

	meta := func(name string, pid, tid int, label string) TraceEvent {
		return TraceEvent{Name: name, Phase: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": label}}
	}
	out := []TraceEvent{meta("process_name", 0, 0, "scheduler")}
	names := make([]string, 0, len(pids))
	for t := range pids {
		if t != "" {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	for _, t := range names {
		out = append(out, meta("process_name", pids[t], 0, "tenant "+t))
	}
	jobNames := make([]string, 0, len(tids))
	for id := range tids {
		if id != "" {
			jobNames = append(jobNames, id)
		}
	}
	sort.Strings(jobNames)
	for _, id := range jobNames {
		out = append(out, meta("thread_name", pids[tenantOf[id]], tids[id], "job "+id))
	}

	type openSpan struct {
		pid, tid int
		name     string
	}
	open := map[string]openSpan{} // span id -> begin bookkeeping
	openOrder := []string{}

	for _, ev := range evs {
		pid := pids[ev.Tenant]
		tid := tids[ev.Job]
		args := map[string]any{"type": ev.Type, "seq": ev.Seq}
		if ev.VirtualNS > 0 {
			args["virtual_ns"] = ev.VirtualNS
		}
		for k, v := range ev.Fields {
			args[k] = v
		}
		switch ev.Phase {
		case PhaseBegin:
			name := spanName(ev)
			out = append(out, TraceEvent{Name: name, Phase: "B", Ts: us(ev.WallNS), Pid: pid, Tid: tid, Args: args})
			if _, dup := open[ev.Span]; !dup {
				open[ev.Span] = openSpan{pid: pid, tid: tid, name: name}
				openOrder = append(openOrder, ev.Span)
			}
		case PhaseEnd:
			os, ok := open[ev.Span]
			if !ok {
				// End without a begin (journal opened mid-span after a
				// restart): render as an instant instead.
				out = append(out, TraceEvent{Name: spanName(ev), Phase: "i", Ts: us(ev.WallNS), Pid: pid, Tid: tid, Scope: "t", Args: args})
				continue
			}
			out = append(out, TraceEvent{Name: os.name, Phase: "E", Ts: us(ev.WallNS), Pid: os.pid, Tid: os.tid, Args: args})
			delete(open, ev.Span)
		default:
			out = append(out, TraceEvent{Name: ev.Type, Phase: "i", Ts: us(ev.WallNS), Pid: pid, Tid: tid, Scope: "t", Args: args})
		}
	}
	// Close crash-tail spans innermost-first (reverse open order).
	for i := len(openOrder) - 1; i >= 0; i-- {
		span := openOrder[i]
		os, ok := open[span]
		if !ok {
			continue
		}
		out = append(out, TraceEvent{Name: os.name, Phase: "E", Ts: us(last), Pid: os.pid, Tid: os.tid,
			Args: map[string]any{"unclosed": true}})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(TraceFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}
