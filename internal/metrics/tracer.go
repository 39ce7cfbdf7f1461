package metrics

import "sync"

// PhaseEvent is one lifecycle transition: the probe entered Phase at
// virtual time At (nanoseconds).
type PhaseEvent struct {
	Phase string `json:"phase"`
	At    int64  `json:"at"`
}

// ProbeTrace is the full lifecycle record of one probe: its phase
// transitions in order and the terminal outcome taxon (e.g. "success",
// "error:loss-gap", "unreachable:syn-timeout").
type ProbeTrace struct {
	ID      uint64       `json:"id"`
	Label   string       `json:"label"`
	Events  []PhaseEvent `json:"events"`
	Outcome string       `json:"outcome"`
	EndedAt int64        `json:"ended_at"`
}

// Duration returns the probe's lifetime in nanoseconds.
func (t *ProbeTrace) Duration() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.EndedAt - t.Events[0].At
}

// Tracer records per-probe phase transitions with virtual timestamps
// and aggregates them into the registry:
//
//	<prefix>.phase.<from>_to_<to>_ns  histogram of each transition
//	<prefix>.lifetime_ns              histogram of begin→end durations
//	<prefix>.outcome.<taxon>          counter per terminal outcome
//
// Aggregation is always on; full traces are retained only when SetKeep
// enables a ring buffer (for debugging and the pcap-style dump tools),
// so tracing millions of probes stays O(1) in memory by default. With
// retention off a trace is one value in the active map — when it began
// and its latest event — and every registry handle is resolved once,
// so a warm Begin/Phase/End cycle allocates nothing.
type Tracer struct {
	reg    *Registry
	prefix string

	// evicted counts completed traces pushed out of the retention ring;
	// retained gauges the ring's current size. Together they make the
	// otherwise-silent SetKeep window observable.
	evicted  *Counter
	retained *Gauge

	mu     sync.Mutex
	nextID uint64
	active map[uint64]activeTrace
	keep   int
	ring   []ProbeTrace

	// Registry handles, resolved on first use and not up front: the
	// registry creates a metric when it is first asked for and a
	// snapshot lists what exists, so a tracer reports only what it saw.
	phases   map[[2]string]*Histogram // by (from, to)
	outcomes map[string]*Counter      // by taxon
	lifetime *Histogram
}

// activeTrace is a trace between Begin and End.
type activeTrace struct {
	label string
	begun int64
	last  PhaseEvent
	// events is every event so far, or nil for a trace begun while
	// retention was off: such a trace is aggregated but never retained.
	events []PhaseEvent
}

// NewTracer creates a tracer that aggregates into reg under the given
// name prefix (e.g. "core.probe").
func NewTracer(reg *Registry, prefix string) *Tracer {
	return &Tracer{
		reg:      reg,
		prefix:   prefix,
		evicted:  reg.Counter(prefix + ".traces_evicted"),
		retained: reg.Gauge(prefix + ".traces_retained"),
		active:   make(map[uint64]activeTrace),
		phases:   make(map[[2]string]*Histogram),
		outcomes: make(map[string]*Counter),
	}
}

// SetKeep retains the last n completed traces (0 disables retention).
func (t *Tracer) SetKeep(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keep = n
	if n == 0 {
		t.ring = nil
	}
	if len(t.ring) > n {
		t.evicted.Add(int64(len(t.ring) - n))
		t.ring = t.ring[len(t.ring)-n:]
	}
	t.retained.Set(int64(len(t.ring)))
}

// Retains reports whether completed traces are being retained, so a
// caller can skip formatting a label nobody will read.
func (t *Tracer) Retains() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keep > 0
}

// Begin starts a trace in the given initial phase and returns its ID.
func (t *Tracer) Begin(label, phase string, at int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	tr := activeTrace{label: label, begun: at, last: PhaseEvent{Phase: phase, At: at}}
	if t.keep > 0 {
		tr.events = []PhaseEvent{tr.last}
	}
	t.active[t.nextID] = tr
	return t.nextID
}

// Phase records a transition into phase at virtual time at. Unknown IDs
// (already ended) are ignored so callers need no teardown ordering.
func (t *Tracer) Phase(id uint64, phase string, at int64) {
	t.mu.Lock()
	tr, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	last := tr.last
	tr.last = PhaseEvent{Phase: phase, At: at}
	if tr.events != nil {
		tr.events = append(tr.events, tr.last)
	}
	t.active[id] = tr
	key := [2]string{last.Phase, phase}
	h := t.phases[key]
	if h == nil {
		h = t.reg.Histogram(t.prefix + ".phase." + last.Phase + "_to_" + phase + "_ns")
		t.phases[key] = h
	}
	t.mu.Unlock()
	h.Observe(at - last.At)
}

// End terminates the trace with the given outcome taxon.
func (t *Tracer) End(id uint64, outcome string, at int64) {
	t.mu.Lock()
	tr, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	delete(t.active, id)
	if t.keep > 0 && tr.events != nil {
		if len(t.ring) >= t.keep {
			copy(t.ring, t.ring[1:])
			t.ring = t.ring[:len(t.ring)-1]
			t.evicted.Inc()
		}
		t.ring = append(t.ring, ProbeTrace{ID: id, Label: tr.label, Events: tr.events, Outcome: outcome, EndedAt: at})
		t.retained.Set(int64(len(t.ring)))
	}
	c := t.outcomes[outcome]
	if c == nil {
		c = t.reg.Counter(t.prefix + ".outcome." + outcome)
		t.outcomes[outcome] = c
	}
	if t.lifetime == nil {
		t.lifetime = t.reg.Histogram(t.prefix + ".lifetime_ns")
	}
	lifetime := t.lifetime
	t.mu.Unlock()
	c.Inc()
	lifetime.Observe(at - tr.begun)
}

// Active returns the number of traces begun but not yet ended.
func (t *Tracer) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Completed returns the retained completed traces, oldest first.
func (t *Tracer) Completed() []ProbeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ProbeTrace, len(t.ring))
	copy(out, t.ring)
	return out
}
