package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"iwscan/internal/checkpoint"
	"iwscan/internal/events"
	"iwscan/internal/experiments"
	"iwscan/internal/flight"
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/scanner"
	"iwscan/internal/timeseries"
)

// Config tunes the manager.
type Config struct {
	// Dir is the durable state root: one subdirectory per job holding
	// job.json (spec + lifecycle + cursor, written atomically) and the
	// artifact file the job's sink streams into.
	Dir string
	// BudgetPPS is the global probe budget in probes per second of
	// virtual time — the paper's §3.4 uplink arithmetic (150 kpps
	// there, the default here). Each tenant's share is BudgetPPS
	// weighted by its fair-share weight; a job's engine rate is capped
	// at its tenant's share at admission.
	BudgetPPS float64
	// MaxConcurrent bounds how many job segments execute at once
	// (default 2). Each segment is one independent simulation, so this
	// is the process's scan parallelism knob.
	MaxConcurrent int
	// SliceVirtual is the virtual-time length of one segment — the
	// spacing of the cooperative pause points where pause, resume,
	// cancel and restart take effect (default 10 virtual seconds, the
	// CLI's checkpoint cadence).
	SliceVirtual netsim.Time
	// Events, when non-nil, arms the control-plane journal: every
	// lifecycle transition, admission, dispatch decision, vtime
	// charge/settle, segment/shard span, checkpoint write and recovery
	// action is appended to it. The manager takes ownership — Close
	// emits the terminal server_shutdown event and closes the journal.
	// A nil journal disarms emission entirely (and provably does not
	// perturb artifacts either way; see TestJournalNonPerturbation).
	Events *events.Journal
	// Metrics, when non-nil, receives the jobs.* control-plane metrics
	// (state counters/gauges, segment-duration and dispatch-latency
	// histograms, per-tenant vtime gauges). A private registry is used
	// otherwise; either way it is reachable via Manager.Registry.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.BudgetPPS <= 0 {
		c.BudgetPPS = 150000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.SliceVirtual <= 0 {
		c.SliceVirtual = 10 * netsim.Second
	}
	return c
}

// Job is the durable description of one job — the exact JSON persisted
// as job.json at every cooperative pause point.
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// State is the lifecycle state; Error carries the failure reason
	// when State is failed.
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// PauseRequested / CancelRequested mark a request made while a
	// segment was executing; it is honored at the next pause point (or
	// at restart recovery, if the daemon dies first).
	PauseRequested  bool `json:"pause_requested,omitempty"`
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// SubmitSeq orders jobs FIFO within a tenant across restarts.
	SubmitSeq int `json:"submit_seq"`
	// EffectiveRate is the admitted engine rate: min(requested rate,
	// tenant budget share at submission). Fixed for the job's lifetime
	// so every segment replays identically.
	EffectiveRate float64 `json:"effective_rate"`
	// Estimate is the expected number of probe launches (space ×
	// sample), the denominator of the progress figure.
	Estimate int64 `json:"estimate"`
	// Frontier is the engine cursor: exactly this many records are
	// durably in the artifact. The scheduler bills tenants by frontier
	// advance — re-probed in-flight work is never double-charged.
	Frontier uint64 `json:"frontier"`
	// Cumulative engine counters across segments. Launched/Completed
	// count work performed, which exceeds Frontier when segments
	// re-probe the in-flight tail; they measure cost, Frontier
	// measures output.
	Launched  int64 `json:"launched"`
	Completed int64 `json:"completed"`
	Skipped   int64 `json:"skipped"`
	Pruned    int64 `json:"pruned,omitempty"`
	Retries   int64 `json:"retries"`
	// VirtualNS is the summed virtual time of all segments; Slices is
	// the segment count.
	VirtualNS int64 `json:"virtual_ns"`
	Slices    int   `json:"slices"`
	// ArtifactBytes is the artifact size at the last pause point.
	// Restart recovery truncates the file back to it, discarding any
	// torn tail a mid-segment crash left behind.
	ArtifactBytes int64 `json:"artifact_bytes"`
	// Anomalies tallies telemetry anomalies across segments.
	Anomalies int64 `json:"anomalies"`
	// Checkpoint is the resume state for the next segment (nil before
	// the first segment; Completed once the scan finished).
	Checkpoint *checkpoint.State `json:"checkpoint,omitempty"`

	CreatedUnixNS int64 `json:"created_unix_ns"`
	UpdatedUnixNS int64 `json:"updated_unix_ns"`
}

// job wraps the durable Job with runtime-only state.
type job struct {
	Job
	executing      bool
	sliceEst       float64
	sliceContended bool
	debug          *flight.DebugServer
	ts             *timeseries.Store // executing segment's telemetry
	// dispatchableSince is when the job last became eligible for a
	// slot (submit, resume, recovery re-queue, or segment end with
	// work remaining); the dispatch-latency histogram observes the gap
	// to the actual dispatch.
	dispatchableSince time.Time
}

// JobView is the API snapshot of a job.
type JobView struct {
	ID              string  `json:"id"`
	Name            string  `json:"name,omitempty"`
	Tenant          string  `json:"tenant"`
	Weight          int     `json:"weight"`
	State           State   `json:"state"`
	PauseRequested  bool    `json:"pause_requested,omitempty"`
	CancelRequested bool    `json:"cancel_requested,omitempty"`
	Error           string  `json:"error,omitempty"`
	Spec            Spec    `json:"spec"`
	EffectiveRate   float64 `json:"effective_rate"`
	Estimate        int64   `json:"estimate"`
	RecordsEmitted  uint64  `json:"records_emitted"`
	Progress        float64 `json:"progress"`
	Launched        int64   `json:"launched"`
	Completed       int64   `json:"completed"`
	Skipped         int64   `json:"skipped"`
	Pruned          int64   `json:"pruned,omitempty"`
	Retries         int64   `json:"retries"`
	Slices          int     `json:"slices"`
	VirtualNS       int64   `json:"virtual_ns"`
	ArtifactBytes   int64   `json:"artifact_bytes"`
	Anomalies       int64   `json:"anomalies"`
	CursorSeq       uint64  `json:"cursor_seq"`
	Artifact        string  `json:"artifact"`
	CreatedUnixNS   int64   `json:"created_unix_ns"`
	UpdatedUnixNS   int64   `json:"updated_unix_ns"`
}

// SchedulerStats is the API snapshot of the fair-share state.
type SchedulerStats struct {
	BudgetPPS      float64       `json:"budget_pps"`
	MaxConcurrent  int           `json:"max_concurrent"`
	SliceVirtualNS int64         `json:"slice_virtual_ns"`
	Running        int           `json:"running"`
	States         map[State]int `json:"states"`
	ChargedTotal   int64         `json:"charged_probes"`
	ContendedTotal int64         `json:"contended_probes"`
	Tenants        []TenantView  `json:"tenants"`
}

// Manager owns the job table, the fair-share scheduler and the segment
// runners. All public methods are safe for concurrent use.
type Manager struct {
	cfg     Config
	journal *events.Journal
	reg     *metrics.Registry

	mu       sync.Mutex
	jobs     map[string]*job
	sched    *scheduler
	running  int
	closed   bool
	shutdown bool
	nextID   int
	nextSeq  int
	wg       sync.WaitGroup
}

// NewManager opens (or creates) the state directory and recovers every
// persisted job: interrupted segments are rolled back to their last
// pause point (artifact truncated to the recorded size), jobs that were
// running are re-queued, and pending pause/cancel requests are honored.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Manager{cfg: cfg, journal: cfg.Events, reg: reg,
		jobs: make(map[string]*job), sched: newScheduler()}
	m.emit(events.Event{Type: events.TypeDaemonStart, Fields: map[string]any{
		"dir": cfg.Dir, "budget_pps": cfg.BudgetPPS,
		"max_concurrent": cfg.MaxConcurrent, "slice_virtual_ns": int64(cfg.SliceVirtual),
	}})
	if err := m.recover(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.updateStateGaugesLocked()
	m.dispatchLocked()
	m.mu.Unlock()
	return m, nil
}

// Journal returns the armed event journal (nil when disarmed).
func (m *Manager) Journal() *events.Journal { return m.journal }

// Registry returns the control-plane metrics registry (jobs.*).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// emit appends one event to the journal. Emission is observation only:
// it is a no-op when disarmed, never fails the caller, and touches
// nothing the scan engine reads, so artifacts are byte-identical with
// or without it.
func (m *Manager) emit(ev events.Event) {
	if m.journal != nil {
		m.journal.Append(ev)
	}
}

// jobEvent seeds an event with a job's identity, span and virtual
// clock.
func jobEvent(j *job, typ string) events.Event {
	return events.Event{
		Type: typ, Job: j.ID, Tenant: j.Spec.Tenant,
		Span: events.JobSpan(j.ID), VirtualNS: j.VirtualNS,
	}
}

// transitionLocked applies a lifecycle edge and records it: the
// state_change event (which closes the job span on a terminal edge),
// the per-state counters and the queue-depth gauges.
func (m *Manager) transitionLocked(j *job, to State, reason string) {
	from := j.State
	setState(j, to)
	switch to {
	case StateCompleted:
		m.reg.Counter("jobs.completed").Inc()
	case StateFailed:
		m.reg.Counter("jobs.failed").Inc()
	case StateCancelled:
		m.reg.Counter("jobs.cancelled").Inc()
	case StateQueued:
		j.dispatchableSince = time.Now()
	}
	m.updateStateGaugesLocked()
	ev := jobEvent(j, events.TypeStateChange)
	ev.Fields = map[string]any{"from": string(from), "to": string(to), "reason": reason}
	if to.Terminal() {
		ev.Phase = events.PhaseEnd
	}
	m.emit(ev)
}

// updateStateGaugesLocked recomputes the queue-depth gauges.
func (m *Manager) updateStateGaugesLocked() {
	var queued, running, paused int64
	for _, j := range m.jobs {
		switch j.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StatePaused:
			paused++
		}
	}
	m.reg.Gauge("jobs.queued").Set(queued)
	m.reg.Gauge("jobs.running").Set(running)
	m.reg.Gauge("jobs.paused").Set(paused)
}

// vtimeGaugeLocked mirrors a tenant's scheduler clock into the
// registry (probes, truncated — the gauge is for dashboards; the
// journal carries the exact float).
func (m *Manager) vtimeGaugeLocked(t *tenantState) {
	m.reg.Gauge("jobs.vtime." + t.Name).Set(int64(t.vtime))
}

// emitRequestLocked records a lifecycle request that did not change
// state immediately (deferred to the pause point, or withdrawing an
// earlier request).
func (m *Manager) emitRequestLocked(j *job, verb, disposition string) {
	ev := jobEvent(j, events.TypeRequest)
	ev.Fields = map[string]any{"verb": verb, "disposition": disposition}
	m.emit(ev)
}

// recover loads persisted jobs and resolves interrupted lifecycle
// state. It runs before the manager is visible to any other goroutine.
func (m *Manager) recover() error {
	root := filepath.Join(m.cfg.Dir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(root, e.Name(), "job.json")
		var rec Job
		if err := loadJSON(path, &rec); err != nil {
			return fmt.Errorf("jobs: recovering %s: %w", e.Name(), err)
		}
		j := &job{Job: rec, debug: flight.NewDebugServer()}
		// The action is fully determined by the loaded record; name it
		// up front so the recovery event (which re-introduces the job
		// to the journal, in its as-loaded state) precedes the
		// state_change edges that carry it out.
		action, post := "kept", j.State
		switch {
		case j.CancelRequested && !j.State.Terminal():
			action, post = "cancelled", StateCancelled
		case j.PauseRequested && !j.State.Terminal():
			action, post = "paused", StatePaused
		case j.State == StateRunning:
			action, post = "requeued", StateQueued
		}
		// Roll a torn artifact tail back to the last pause point.
		var truncated int64
		if !post.Terminal() || post == StateCancelled {
			art := filepath.Join(root, j.ID, j.Spec.artifactName())
			if fi, err := os.Stat(art); err == nil && fi.Size() > j.ArtifactBytes {
				truncated = fi.Size() - j.ArtifactBytes
				if err := os.Truncate(art, j.ArtifactBytes); err != nil {
					return fmt.Errorf("jobs: truncating %s: %w", art, err)
				}
			}
		}
		ev := jobEvent(j, events.TypeRecovery)
		ev.Fields = map[string]any{
			"state": string(j.State), "action": action,
			"pause_requested": j.PauseRequested, "cancel_requested": j.CancelRequested,
			"truncated_bytes": truncated,
		}
		m.emit(ev)
		// Requests made while a segment was executing are honored here
		// if the daemon died before the pause point did it.
		switch action {
		case "cancelled":
			m.transitionLocked(j, StateCancelled, "recovery: pending cancel honored")
			j.CancelRequested, j.PauseRequested = false, false
		case "paused":
			m.transitionLocked(j, StatePaused, "recovery: pending pause honored")
			j.PauseRequested = false
		case "requeued":
			// Interrupted mid-run: the last pause point is durable, so
			// the job simply rejoins the queue and resumes from it.
			m.transitionLocked(j, StateQueued, "recovery: interrupted segment re-queued")
		}
		m.jobs[j.ID] = j
		m.sched.tenant(j.Spec.Tenant, j.Spec.Weight)
		if n := idNumber(j.ID); n >= m.nextID {
			m.nextID = n + 1
		}
		if j.SubmitSeq >= m.nextSeq {
			m.nextSeq = j.SubmitSeq + 1
		}
		if err := m.persistLocked(j); err != nil {
			return err
		}
	}
	return nil
}

func idNumber(id string) int {
	var n int
	fmt.Sscanf(id, "j%d", &n)
	return n
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Close stops dispatching, waits for executing segments to reach their
// pause point, and leaves every job durably at a clean boundary. A
// restarted manager over the same directory picks each job up exactly
// where it left off. With a journal armed, Close appends a terminal
// server_shutdown event — delivered to every live watcher before their
// streams end — and then closes the journal. Close is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shutdown {
		return
	}
	m.shutdown = true
	m.emit(events.Event{Type: events.TypeServerShutdown, Fields: map[string]any{
		"jobs": len(m.jobs),
	}})
	if m.journal != nil {
		m.journal.Close()
	}
}

func (m *Manager) jobDir(id string) string { return filepath.Join(m.cfg.Dir, "jobs", id) }

// ArtifactPath returns the absolute path of a job's artifact file.
func (m *Manager) ArtifactPath(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", false
	}
	return filepath.Join(m.jobDir(id), j.Spec.artifactName()), true
}

// Debug returns the job's per-job debug server (metrics, timeseries,
// dashboard). Its handlers are live while a segment executes and answer
// 503 between segments — each segment resets and re-attaches it.
func (m *Manager) Debug(id string) (*flight.DebugServer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.debug, true
}

// Submit validates and admits a job, assigning its effective rate from
// the tenant's budget share, and returns its initial view.
func (m *Manager) Submit(spec Spec) (JobView, error) {
	if err := spec.Normalize(); err != nil {
		return JobView{}, err
	}
	// Size the target estimate outside the lock: it materializes the
	// universe prefix table.
	estimate := spec.estimateTargets()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, fmt.Errorf("jobs: manager is shutting down")
	}
	t := m.sched.tenant(spec.Tenant, spec.Weight)
	share := m.cfg.BudgetPPS * float64(t.Weight) / float64(m.sched.totalWeight())
	eff := spec.Rate
	if eff > share {
		eff = share
	}
	if eff < 1 {
		eff = 1
	}
	// Snapshot activity before the new job exists: the wake clamp must
	// only apply when the tenant was actually idle, otherwise a fresh
	// submission would erase service debt owed to an active tenant.
	active := m.activeTenantsLocked()
	id := fmt.Sprintf("j%06d", m.nextID)
	m.nextID++
	now := time.Now().UnixNano()
	j := &job{
		Job: Job{
			ID: id, Spec: spec, State: StateQueued,
			SubmitSeq: m.nextSeq, EffectiveRate: eff, Estimate: estimate,
			CreatedUnixNS: now, UpdatedUnixNS: now,
		},
		debug: flight.NewDebugServer(),
	}
	m.nextSeq++
	if err := os.MkdirAll(m.jobDir(id), 0o755); err != nil {
		return JobView{}, err
	}
	m.jobs[id] = j
	j.dispatchableSince = time.Now()
	if !active[spec.Tenant] {
		before := t.vtime
		m.sched.wake(t, active)
		if t.vtime != before {
			m.emit(events.Event{Type: events.TypeTenantWake, Tenant: t.Name,
				Fields: map[string]any{"vtime_before": before, "vtime_after": t.vtime}})
			m.vtimeGaugeLocked(t)
		}
	}
	// The admission audit record: requested vs budget-capped rate and
	// the share arithmetic behind it. Phase begin opens the job span.
	ev := jobEvent(j, events.TypeJobSubmitted)
	ev.Phase = events.PhaseBegin
	ev.Fields = map[string]any{
		"requested_rate": spec.Rate, "effective_rate": eff,
		"budget_pps": m.cfg.BudgetPPS, "share": share,
		"weight": t.Weight, "total_weight": m.sched.totalWeight(),
		"estimate": estimate, "submit_seq": j.SubmitSeq,
		"scan_mode": spec.ScanMode,
	}
	m.emit(ev)
	m.reg.Counter("jobs.submitted").Inc()
	m.updateStateGaugesLocked()
	if err := m.persistLocked(j); err != nil {
		delete(m.jobs, id)
		return JobView{}, err
	}
	m.dispatchLocked()
	return m.viewLocked(j), nil
}

// estimateTargets sizes the job: the space net of sampling. Hitlist
// jobs are sized by the list itself; an unreadable list yields a zero
// estimate and the first segment fails the job with the real error.
// Smart jobs keep the full-space estimate — pruning savings show up as
// early completion, not a smaller denominator, because the plan is
// compiled per segment rather than at submission.
func (s *Spec) estimateTargets() int64 {
	if s.ScanMode == "hitlist" {
		recs, err := output.ReadRecordsFile(s.HitlistPath)
		if err != nil {
			return 0
		}
		return int64(float64(len(prefixtree.Hitlist(recs)))*s.SampleFraction + 0.5)
	}
	sp := scanner.NewSpaceFromPrefixes(s.universe().Prefixes())
	return int64(float64(sp.Size())*s.SampleFraction + 0.5)
}

// Pause moves a job to paused: immediately when it is queued or between
// segments, at the next cooperative pause point when a segment is
// executing (the view shows pause_requested until then).
func (m *Manager) Pause(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, errUnknownJob(id)
	}
	switch {
	case j.State == StateQueued, j.State == StateRunning && !j.executing:
		m.transitionLocked(j, StatePaused, "pause requested")
	case j.State == StateRunning:
		j.PauseRequested = true
		m.emitRequestLocked(j, "pause", "deferred to pause point")
	case j.State == StatePaused:
		// Idempotent.
	default:
		return JobView{}, fmt.Errorf("jobs: cannot pause job %s in state %s", id, j.State)
	}
	if err := m.persistLocked(j); err != nil {
		return JobView{}, err
	}
	return m.viewLocked(j), nil
}

// Resume re-queues a paused job (or withdraws a pending pause request).
func (m *Manager) Resume(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, errUnknownJob(id)
	}
	switch {
	case j.State == StatePaused:
		active := m.activeTenantsLocked()
		m.transitionLocked(j, StateQueued, "resume requested")
		if !active[j.Spec.Tenant] {
			t := m.sched.tenant(j.Spec.Tenant, 0)
			before := t.vtime
			m.sched.wake(t, active)
			if t.vtime != before {
				m.emit(events.Event{Type: events.TypeTenantWake, Tenant: t.Name,
					Fields: map[string]any{"vtime_before": before, "vtime_after": t.vtime}})
				m.vtimeGaugeLocked(t)
			}
		}
	case j.State == StateRunning && j.PauseRequested:
		j.PauseRequested = false
		m.emitRequestLocked(j, "resume", "pending pause withdrawn")
	case j.State == StateQueued, j.State == StateRunning:
		// Idempotent.
	default:
		return JobView{}, fmt.Errorf("jobs: cannot resume job %s in state %s", id, j.State)
	}
	if err := m.persistLocked(j); err != nil {
		return JobView{}, err
	}
	m.dispatchLocked()
	return m.viewLocked(j), nil
}

// Cancel terminates a job: immediately when it is not executing, at the
// next cooperative pause point otherwise. The artifact keeps every
// record emitted up to the cancellation point.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, errUnknownJob(id)
	}
	switch {
	case j.State == StateQueued, j.State == StatePaused, j.State == StateRunning && !j.executing:
		m.transitionLocked(j, StateCancelled, "cancel requested")
		j.PauseRequested = false
	case j.State == StateRunning:
		j.CancelRequested = true
		m.emitRequestLocked(j, "cancel", "deferred to pause point")
	case j.State == StateCancelled:
		// Idempotent.
	default:
		return JobView{}, fmt.Errorf("jobs: cannot cancel job %s in state %s", id, j.State)
	}
	if err := m.persistLocked(j); err != nil {
		return JobView{}, err
	}
	return m.viewLocked(j), nil
}

// Get returns a job snapshot.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return m.viewLocked(j), true
}

// List returns every job, ordered by submission.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.viewLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stats snapshots the scheduler.
func (m *Manager) Stats() SchedulerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := SchedulerStats{
		BudgetPPS:      m.cfg.BudgetPPS,
		MaxConcurrent:  m.cfg.MaxConcurrent,
		SliceVirtualNS: int64(m.cfg.SliceVirtual),
		Running:        m.running,
		States:         make(map[State]int),
		Tenants:        m.sched.views(),
	}
	for _, j := range m.jobs {
		st.States[j.State]++
	}
	for _, t := range st.Tenants {
		st.ChargedTotal += t.Charged
		st.ContendedTotal += t.Contended
	}
	return st
}

func errUnknownJob(id string) error { return fmt.Errorf("jobs: unknown job %q", id) }

// setState applies a lifecycle edge, enforcing the state machine: an
// illegal edge is a manager bug and panics rather than corrupting the
// persisted job file.
func setState(j *job, to State) {
	if !CanTransition(j.State, to) {
		panic(fmt.Sprintf("jobs: illegal transition %s -> %s for %s", j.State, to, j.ID))
	}
	j.State = to
}

func (m *Manager) viewLocked(j *job) JobView {
	t := m.sched.tenant(j.Spec.Tenant, 0)
	v := JobView{
		ID: j.ID, Name: j.Spec.Name, Tenant: j.Spec.Tenant, Weight: t.Weight,
		State: j.State, PauseRequested: j.PauseRequested, CancelRequested: j.CancelRequested,
		Error: j.Error, Spec: j.Spec, EffectiveRate: j.EffectiveRate,
		Estimate: j.Estimate, RecordsEmitted: j.Frontier, CursorSeq: j.Frontier,
		Launched: j.Launched, Completed: j.Completed, Skipped: j.Skipped,
		Pruned: j.Pruned, Retries: j.Retries,
		Slices: j.Slices, VirtualNS: j.VirtualNS, ArtifactBytes: j.ArtifactBytes,
		Anomalies:     j.Anomalies,
		Artifact:      filepath.Join("jobs", j.ID, j.Spec.artifactName()),
		CreatedUnixNS: j.CreatedUnixNS, UpdatedUnixNS: j.UpdatedUnixNS,
	}
	if j.Estimate > 0 {
		v.Progress = float64(j.Frontier) / float64(j.Estimate)
		if v.Progress > 1 {
			v.Progress = 1
		}
	}
	if j.ts != nil {
		// Fold the executing segment's live tally into the view.
		total, _, _ := j.ts.AnomalySummary()
		v.Anomalies += total
	}
	return v
}

func (m *Manager) persistLocked(j *job) error {
	j.UpdatedUnixNS = time.Now().UnixNano()
	err := checkpoint.SaveJSON(filepath.Join(m.jobDir(j.ID), "job.json"), &j.Job)
	if err == nil {
		ev := jobEvent(j, events.TypeCheckpointWrite)
		ev.Fields = map[string]any{
			"state": string(j.State), "frontier": j.Frontier,
			"artifact_bytes": j.ArtifactBytes, "slices": j.Slices,
		}
		m.emit(ev)
		// Job state just became durable; make the journal at least as
		// durable so a crash cannot lose events describing persisted
		// state (the meta high-water mark advances with the fsync).
		if m.journal != nil {
			m.journal.Sync()
		}
	}
	return err
}

// activeTenantsLocked names tenants with live (non-terminal) jobs.
func (m *Manager) activeTenantsLocked() map[string]bool {
	out := make(map[string]bool)
	for _, j := range m.jobs {
		if j.State == StateQueued || j.State == StateRunning {
			out[j.Spec.Tenant] = true
		}
	}
	return out
}

// dispatchableLocked reports whether a job can start a segment now.
func dispatchableLocked(j *job) bool {
	if j.executing || j.PauseRequested || j.CancelRequested {
		return false
	}
	return j.State == StateQueued || j.State == StateRunning
}

// dispatchLocked fills free execution slots: pick the minimum
// virtual-time tenant with a dispatchable job, charge the estimated
// segment cost, and launch the segment runner. Each decision is
// journaled with the full candidate set — every runnable tenant's
// vtime and FIFO-next job, losers included — so a fairness dispute is
// answerable from the audit trail alone.
func (m *Manager) dispatchLocked() {
	for !m.closed && m.running < m.cfg.MaxConcurrent {
		runnable := make(map[string]bool)
		fifoNext := make(map[string]*job)
		for _, j := range m.jobs {
			if dispatchableLocked(j) {
				runnable[j.Spec.Tenant] = true
				if cur := fifoNext[j.Spec.Tenant]; cur == nil || j.SubmitSeq < cur.SubmitSeq {
					fifoNext[j.Spec.Tenant] = j
				}
			}
		}
		if len(runnable) == 0 {
			return
		}
		t := m.sched.pick(runnable)
		next := fifoNext[t.Name]
		if next == nil {
			return
		}
		if next.State == StateQueued {
			m.transitionLocked(next, StateRunning, "dispatched")
		}
		next.executing = true
		next.sliceContended = len(runnable) > 1
		next.sliceEst = next.EffectiveRate * float64(m.cfg.SliceVirtual) / float64(netsim.Second)

		// Audit the decision before mutating the clocks: candidates are
		// sorted by tenant name so fixed-seed runs journal identically.
		names := make([]string, 0, len(runnable))
		for name := range runnable {
			names = append(names, name)
		}
		sort.Strings(names)
		cands := make([]map[string]any, 0, len(names))
		for _, name := range names {
			ct := m.sched.tenant(name, 0)
			cands = append(cands, map[string]any{
				"tenant": name, "vtime": ct.vtime, "weight": ct.Weight,
				"next_job": fifoNext[name].ID, "submit_seq": fifoNext[name].SubmitSeq,
			})
		}
		dev := jobEvent(next, events.TypeDispatch)
		dev.Fields = map[string]any{
			"chosen": t.Name, "candidates": cands,
			"slice_est": next.sliceEst, "contended": next.sliceContended,
			"slice": next.Slices, "slot_used": m.running + 1, "slots": m.cfg.MaxConcurrent,
		}
		m.emit(dev)
		m.reg.Counter("jobs.dispatches").Inc()
		if !next.dispatchableSince.IsZero() {
			m.reg.Histogram("jobs.dispatch_latency_ns").Observe(time.Since(next.dispatchableSince).Nanoseconds())
			next.dispatchableSince = time.Time{}
		}

		before := t.vtime
		m.sched.chargeEstimate(t, next.sliceEst)
		cev := jobEvent(next, events.TypeVtimeCharge)
		cev.Fields = map[string]any{
			"tenant": t.Name, "estimate": next.sliceEst,
			"vtime_before": before, "vtime_after": t.vtime,
		}
		m.emit(cev)
		m.vtimeGaugeLocked(t)

		m.running++
		m.wg.Add(1)
		go m.runSegment(next)
	}
}

// scanConfig builds the segment's ScanConfig from the job spec. Every
// identity-defining field comes from the immutable spec, so each
// segment fingerprints identically — the precondition for splicing.
func (j *job) scanConfig() experiments.ScanConfig {
	spec := j.Spec
	cfg := experiments.ScanConfig{
		Seed:           spec.Seed,
		Strategy:       spec.strategy(),
		SampleFraction: spec.SampleFraction,
		Rate:           j.EffectiveRate,
		MSSList:        spec.MSSList,
		Repeats:        spec.Repeats,
		MaxRetries:     spec.MaxRetries,
		Loss:           spec.Loss,
	}
	if spec.Reorder > 0 || spec.Duplicate > 0 {
		cfg.Path = &netsim.PathParams{
			Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond,
			Loss: spec.Loss, Reorder: spec.Reorder, Duplicate: spec.Duplicate,
		}
	}
	if spec.TailLoss > 0 {
		seed, p := spec.Seed, spec.TailLoss
		cfg.FilterFactories = append(cfg.FilterFactories, func() netsim.Filter {
			return netsim.TailLossFilter(seed, p)
		})
	}
	return cfg
}

// runSegment executes one virtual-time slice of a job, then finalizes
// its lifecycle at the cooperative pause point.
func (m *Manager) runSegment(j *job) {
	defer m.wg.Done()
	// Segment event loops are CPU-bound single simulators, exactly like
	// the scan engine's parallel shards: pin each to an OS thread so
	// concurrently running jobs spread across cores instead of migrating
	// between Ps mid-slice.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	// Snapshot what the segment needs under the lock.
	m.mu.Lock()
	cfg := j.scanConfig()
	resume := j.Checkpoint
	slices := j.Slices
	artBytes := j.ArtifactBytes
	spec := j.Spec
	ts := timeseries.NewStore(timeseries.Config{Ring: 256})
	j.ts = ts
	segSpan := events.SegmentSpan(j.ID, slices)
	sev := jobEvent(j, events.TypeSegmentStart)
	sev.Span, sev.Parent, sev.Phase = segSpan, events.JobSpan(j.ID), events.PhaseBegin
	sev.Fields = map[string]any{
		"slice": slices, "resume_seq": j.Frontier, "artifact_bytes": artBytes,
	}
	m.emit(sev)
	m.mu.Unlock()
	segStart := time.Now()

	u := spec.universe()
	cfg.TimeLimit = m.cfg.SliceVirtual
	cfg.Resume = resume
	cfg.Timeseries = ts
	// Fresh attach per segment: reset first so a previous segment's
	// registry is never served as if it were the live one.
	j.debug.Reset()
	cfg.Debug = j.debug
	if jr := m.journal; jr != nil {
		// Per-job journal view on the debug surface, live for the
		// segment like the rest of the debug data.
		id := j.ID
		j.debug.SetEvents(func(from uint64, limit int) (any, bool) {
			return eventsPage(jr, from, limit, func(ev events.Event) bool {
				return ev.Job == id
			}), true
		})
	}

	art := filepath.Join(m.jobDir(j.ID), spec.artifactName())
	// Resolve smart-plan / hitlist inputs before running: a missing or
	// corrupt model file fails the segment (and the job) up front, and
	// the loaded plan participates in the checkpoint's fingerprint.
	var res *experiments.ScanResult
	runErr := spec.applyTargets(&cfg)
	if runErr == nil {
		// The segment runs as a single shard (shard 0) today; the shard
		// span keeps the trace tree ready for multi-shard segments.
		shSpan := events.ShardSpan(j.ID, slices, 0)
		shev := events.Event{Type: events.TypeShardStart, Job: j.ID, Tenant: spec.Tenant,
			Span: shSpan, Parent: segSpan, Phase: events.PhaseBegin,
			Fields: map[string]any{"shard": 0, "shards": 1}}
		m.emit(shev)
		var sink *output.FileSink
		if sink, runErr = output.OpenFileSink(art, spec.Format, artBytes); runErr == nil {
			cfg.Sink = sink
			res, runErr = experiments.RunScanChecked(u, cfg)
			if err := sink.Close(); runErr == nil {
				runErr = err // fsync: the new pause point must be durable
			}
		}
		shend := events.Event{Type: events.TypeShardEnd, Job: j.ID, Tenant: spec.Tenant,
			Span: shSpan, Phase: events.PhaseEnd,
			Fields: map[string]any{"shard": 0}}
		if res != nil {
			shend.Fields["launched"] = res.Engine.Launched
			shend.Fields["completed"] = res.Engine.Completed
		}
		if runErr != nil {
			shend.Fields["error"] = runErr.Error()
		}
		m.emit(shend)
	}
	// Detach the segment's registries again: between segments (and
	// after the job settles) the debug data handlers answer 503 rather
	// than serving a dead segment's numbers as if they were live.
	j.debug.Reset()

	m.mu.Lock()
	defer m.mu.Unlock()
	j.executing = false
	j.ts = nil
	m.running--
	actual := int64(0)
	if res != nil && runErr == nil {
		j.Slices++
		j.Launched += res.Engine.Launched
		j.Completed += res.Engine.Completed
		j.Skipped += res.Engine.Skipped
		j.Pruned += res.Engine.Pruned
		j.Retries += res.Engine.Retries
		j.VirtualNS += int64(res.VirtualTime)
		j.Checkpoint = res.Checkpoint
		seq := j.Checkpoint.Shards[0].Cursor.Seq
		actual = int64(seq - j.Frontier)
		j.Frontier = seq
		j.ArtifactBytes = *j.Checkpoint.OutputBytes
		total, _, _ := ts.AnomalySummary()
		j.Anomalies += total
	}
	t := m.sched.tenant(spec.Tenant, 0)
	vtBefore := t.vtime
	m.sched.settle(t, j.sliceEst, actual, j.sliceContended)
	stev := jobEvent(j, events.TypeVtimeSettle)
	stev.Fields = map[string]any{
		"tenant": t.Name, "estimate": j.sliceEst, "actual": actual,
		"contended": j.sliceContended, "vtime_before": vtBefore, "vtime_after": t.vtime,
	}
	m.emit(stev)
	m.vtimeGaugeLocked(t)

	segWall := time.Since(segStart)
	m.reg.Counter("jobs.segments").Inc()
	m.reg.Histogram("jobs.segment_wall_ns").Observe(segWall.Nanoseconds())
	eev := jobEvent(j, events.TypeSegmentEnd)
	eev.Span, eev.Phase = segSpan, events.PhaseEnd
	eev.Fields = map[string]any{
		"slice": slices, "wall_ns": segWall.Nanoseconds(),
		"records_delta": actual, "frontier": j.Frontier,
		"artifact_bytes": j.ArtifactBytes,
	}
	if res != nil {
		eev.Fields["incomplete"] = res.Incomplete
	}
	if runErr != nil {
		eev.Fields["error"] = runErr.Error()
	}
	m.emit(eev)

	switch {
	case runErr != nil:
		m.transitionLocked(j, StateFailed, "segment error: "+runErr.Error())
		j.Error = runErr.Error()
		j.PauseRequested, j.CancelRequested = false, false
	case !res.Incomplete:
		// Completion wins over a pending cancel or pause: the artifact
		// is already whole.
		m.transitionLocked(j, StateCompleted, "scan complete")
		j.PauseRequested, j.CancelRequested = false, false
	case j.CancelRequested:
		m.transitionLocked(j, StateCancelled, "pending cancel honored at pause point")
		j.PauseRequested, j.CancelRequested = false, false
	case j.PauseRequested:
		m.transitionLocked(j, StatePaused, "pending pause honored at pause point")
		j.PauseRequested = false
	default:
		// Still running with work left: eligible for the next slot.
		j.dispatchableSince = time.Now()
	}
	if err := m.persistLocked(j); err != nil && j.Error == "" {
		// The in-memory state is ahead of the durable file; surface it
		// on the job without forging a lifecycle edge.
		j.Error = "persist: " + err.Error()
	}
	m.dispatchLocked()
}
