package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// Server is the HTTP face of the control plane:
//
//	POST /jobs                 submit a job (body: Spec JSON) → JobView
//	GET  /jobs                 list jobs
//	GET  /jobs/{id}            one job's view
//	POST /jobs/{id}/pause      request pause (applies at the pause point)
//	POST /jobs/{id}/resume     re-queue a paused job
//	POST /jobs/{id}/cancel     cancel
//	GET  /jobs/{id}/artifact   stream the artifact as written so far
//	GET  /jobs/{id}/debug/...  the job's live debug server (/metrics,
//	                           /timeseries, /dash, /debug/pprof, ...)
//	GET  /jobs/{id}/events     one job's journal page (?from=&limit=&wait=)
//	GET  /jobs/{id}/watch      SSE stream of one job's events
//	GET  /events               global journal page (?from=&limit=&wait=)
//	GET  /events/watch         SSE stream of every event
//	GET  /scheduler            fair-share scheduler snapshot
//	GET  /scheduler/audit      scheduler decisions (dispatch/charge/settle/wake)
//	GET  /metrics              control-plane jobs.* metrics (Prometheus)
//	GET  /metrics.json         same, JSON
//	GET  /dash/jobs            self-contained control-plane dashboard
//	GET  /healthz              uptime, journal high-water mark, watchers
//
// The events/watch endpoints answer 503 until a journal is armed
// (Config.Events). Watch streams are Server-Sent Events: each event
// carries its journal sequence as the SSE id, heartbeats flow as
// comment lines, and a dropped client resumes gap-free from
// Last-Event-ID (or an explicit ?from= cursor, the first sequence
// wanted). On graceful shutdown every watcher receives a terminal
// server_shutdown event before its stream ends.
type Server struct {
	m   *Manager
	mux *http.ServeMux
	// Heartbeat is the SSE keep-alive interval (default 5s).
	Heartbeat time.Duration
	// WatchBuffer is the per-watcher queue depth (default 1024); a
	// client that falls further behind than this is disconnected (never
	// skipped past events) and resumes from its last seen sequence.
	WatchBuffer int

	startedNS int64
}

// NewServer wires the manager's API onto a fresh mux.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux(), startedNS: time.Now().UnixNano()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /jobs/{id}/pause", s.action((*Manager).Pause))
	s.mux.HandleFunc("POST /jobs/{id}/resume", s.action((*Manager).Resume))
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.action((*Manager).Cancel))
	s.mux.HandleFunc("GET /jobs/{id}/artifact", s.handleArtifact)
	s.mux.Handle("GET /jobs/{id}/debug/", http.HandlerFunc(s.handleDebug))
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /jobs/{id}/watch", s.handleJobWatch)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /events/watch", s.handleWatch)
	s.mux.HandleFunc("GET /scheduler", s.handleScheduler)
	s.mux.HandleFunc("GET /scheduler/audit", s.handleAudit)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /dash/jobs", s.handleDashJobs)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// maxSpecBytes bounds a submitted spec's body. A spec is a few hundred
// bytes of JSON; reading an unbounded body would let one client pin
// the daemon's memory.
const maxSpecBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("jobs: spec body exceeds %d bytes", maxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("jobs: decoding spec: %w", err))
		return
	}
	view, err := s.m.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	view, ok := s.m.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(req.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// action adapts a lifecycle method (Pause/Resume/Cancel) to a handler.
// Unknown jobs map to 404, illegal transitions to 409.
func (s *Server) action(fn func(*Manager, string) (JobView, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		view, err := fn(s.m, id)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, view)
		case strings.Contains(err.Error(), "unknown job"):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusConflict, err)
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	view, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	path, _ := s.m.ArtifactPath(id)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusNotFound, fmt.Errorf("jobs: job %s has no artifact yet", id))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	// Serve only the durable prefix: bytes past the last pause point
	// belong to a segment still in flight and are not yet stable.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(view.ArtifactBytes, 10))
	io.CopyN(w, f, view.ArtifactBytes)
}

func (s *Server) handleDebug(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	dbg, ok := s.m.Debug(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	prefix := "/jobs/" + id + "/debug"
	http.StripPrefix(prefix, dbg.Handler()).ServeHTTP(w, req)
}

func (s *Server) handleScheduler(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.Registry().Snapshot().WritePrometheus(w)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.m.Registry().Snapshot().WriteJSON(w)
}

// Health is the /healthz body: liveness plus the observability
// high-water marks a fleet monitor wants in one probe.
type Health struct {
	Status   string `json:"status"`
	UptimeNS int64  `json:"uptime_ns"`
	// JournalSeq is the journal's sequence high-water mark (0 when the
	// journal is disarmed); Watchers counts live event subscribers.
	JournalSeq     uint64        `json:"journal_seq"`
	Watchers       int           `json:"watchers"`
	JournalArmed   bool          `json:"journal_armed"`
	JournalError   string        `json:"journal_error,omitempty"`
	Jobs           map[State]int `json:"jobs"`
	SchedulerRuns  int           `json:"running_segments"`
	ChargedProbes  int64         `json:"charged_probes"`
	TenantAccounts int           `json:"tenants"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.m.Stats()
	h := Health{
		Status:         "ok",
		UptimeNS:       time.Now().UnixNano() - s.startedNS,
		Jobs:           st.States,
		SchedulerRuns:  st.Running,
		ChargedProbes:  st.ChargedTotal,
		TenantAccounts: len(st.Tenants),
	}
	if jr := s.m.Journal(); jr != nil {
		h.JournalArmed = true
		h.JournalSeq = jr.HighWater()
		h.Watchers = jr.Watchers()
		if err := jr.Err(); err != nil {
			h.Status = "degraded"
			h.JournalError = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, h)
}
