package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"iwscan/internal/events"
	"iwscan/internal/inet"
	"iwscan/internal/jobs"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/scanner"
	"iwscan/internal/validate"
)

const (
	serveClients   = 2
	serveRoundJobs = 40
	quickRoundJobs = 6
	// jobDeadline bounds every wait of one job. A job whose slowest probe
	// outlives SliceVirtual never advances its frontier and re-probes
	// forever (see README, "livelock hazard"); the deadline turns that
	// into a failed op instead of a hung benchmark.
	jobDeadline = 60 * time.Second
)

// jobSpec is job k of a round: ~1.9k targets at 60 launches per virtual
// second, so about four 10 s segments each; odd jobs are TLS on a lossy
// path. MSSList {64} and Repeats 1 keep every probe shorter than a
// slice.
func jobSpec(e *env, k int) jobs.Spec {
	s := jobs.Spec{
		Tenant: string(rune('a' + k%3)), UniverseSeed: universeSeed,
		Seed: e.seed*1000 + uint64(k), SampleFraction: e.scale(0.008), Rate: 60,
		MSSList: []int{64}, Repeats: 1, Format: "bin",
	}
	if e.quick {
		s.Rate = 6 // keeps the four segments at a tenth of the targets
	}
	if k%2 == 1 {
		s.Strategy, s.Adversity = "tls", "lossy"
	}
	return s
}

// serveInstance is the set-up serve_jobs workload. A service — manager,
// journal and loopback HTTP server on a fresh state directory — is
// booted per round; set-up boots one and pushes a job through it.
type serveInstance struct {
	env     *env
	u       *inet.Universe
	oracle  *validate.Oracle
	slots   int64
	dir     string
	rounds  int
	mu      sync.Mutex
	digests map[int]string // job index -> artifact sha256 of its first run

	last *roundTrace
}

// service is one booted control plane.
type service struct {
	dir     string
	manager *jobs.Manager
	server  *httptest.Server
	client  *http.Client
}

func bootService(dir string) (*service, error) {
	journal, err := events.Open(filepath.Join(dir, "events"))
	if err != nil {
		return nil, err
	}
	m, err := jobs.NewManager(jobs.Config{
		Dir: dir, MaxConcurrent: 2, SliceVirtual: 10 * netsim.Second, Events: journal,
	})
	if err != nil {
		journal.Close()
		return nil, err
	}
	srv := httptest.NewServer(jobs.NewServer(m).Handler())
	return &service{dir: dir, manager: m, server: srv, client: srv.Client()}, nil
}

func (s *service) shutdown() {
	s.server.Close()
	s.manager.Close()
}

func newServeInstance(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	u := inet.NewInternet2017(universeSeed)
	s := &serveInstance{
		env: e, u: u, oracle: validate.NewOracle(u, 64), dir: dir,
		slots:   int64(scanner.NewSpaceFromPrefixes(u.Prefixes()).Size()),
		digests: make(map[int]string),
	}
	// Warm-up, discarded: one job through a booted service.
	if _, _, err := s.round(1); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serveInstance) close() error { return os.RemoveAll(s.dir) }

// check has nothing to add: every job is verified inside its rep.
func (s *serveInstance) check() error { return nil }

// digest is empty: a round writes one artifact per job, each held to its
// own first bytes by sameDigest.
func (s *serveInstance) digest() string { return "" }

func (s *serveInstance) roundJobs() int {
	if s.env.quick {
		return quickRoundJobs
	}
	return serveRoundJobs
}

func (s *serveInstance) rep() (repSample, error) {
	sample, trace, err := s.round(s.roundJobs())
	s.last = trace
	return sample, err
}

// jobResult is what one closed-loop job measured, client side.
type jobResult struct {
	k             int
	id            string
	err           error
	submit, fetch time.Duration
	latency       time.Duration
	polls         int
	launched      int64
	frontier      uint64
	exact, est    int
}

// roundTrace is the control-plane detail of the last round: the client
// timings and the service's own journal.
type roundTrace struct {
	results []jobResult
	events  []events.Event
}

// round boots a service on a fresh state directory and drives n jobs
// through it: a closed loop of serveClients clients, each with its own
// connection, submitting its next job only when the previous one's
// artifact is verified.
func (s *serveInstance) round(n int) (repSample, *roundTrace, error) {
	s.rounds++
	dir := filepath.Join(s.dir, fmt.Sprintf("round-%03d", s.rounds))
	svc, err := bootService(dir)
	if err != nil {
		return repSample{}, nil, err
	}
	results := make([]jobResult, n)
	next := make(chan int)
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				results[k] = s.runJob(svc, k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	syncErr := svc.manager.Journal().Sync()
	svc.shutdown()
	if syncErr != nil {
		return repSample{}, nil, syncErr
	}
	evs, _, err := events.ReadFile(filepath.Join(dir, "events", events.FileName))
	if err != nil {
		return repSample{}, nil, err
	}
	segWall := segmentWallByJob(evs)

	sample := repSample{
		wall: wall, opWall: wall, slots: int64(n) * s.slots,
		mallocs: after.Mallocs - before.Mallocs, heapBytes: after.TotalAlloc - before.TotalAlloc,
		attempted: int64(n),
	}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			sample.failed++
			fmt.Fprintf(os.Stderr, "serve_jobs: job %d (%s) failed: %v\n", r.k, r.id, r.err)
			continue
		}
		sample.probes += r.launched
		sample.exact += int64(r.exact)
		sample.estimates += int64(r.est)
		sample.ops = append(sample.ops, opSample{scanWall: segWall[r.id], latency: r.latency})
	}
	if err := os.RemoveAll(dir); err != nil {
		return repSample{}, nil, err
	}
	return sample, &roundTrace{results: results, events: evs}, nil
}

// segmentWallByJob sums each job's segment wall times from the journal.
func segmentWallByJob(evs []events.Event) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, ev := range evs {
		if ev.Type == events.TypeSegmentEnd {
			if ns, ok := ev.Fields["wall_ns"].(float64); ok {
				out[ev.Job] += time.Duration(ns)
			}
		}
	}
	return out
}

// runJob is one closed-loop operation: submit, long-poll the job's
// events to its terminal state change, fetch the artifact, verify it.
func (s *serveInstance) runJob(svc *service, k int) jobResult {
	res := jobResult{k: k}
	ctx, cancel := context.WithTimeout(context.Background(), jobDeadline)
	defer cancel()
	body, err := json.Marshal(jobSpec(s.env, k))
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	var view jobs.JobView
	if res.err = svc.call(ctx, http.MethodPost, "/jobs", body, http.StatusCreated, &view); res.err != nil {
		return res
	}
	res.submit = time.Since(start)
	res.id = view.ID

	from := uint64(1)
	for state := ""; state == ""; {
		var page jobs.EventsPage
		path := fmt.Sprintf("/jobs/%s/events?from=%d&limit=1000&wait=10s", view.ID, from)
		if res.err = svc.call(ctx, http.MethodGet, path, nil, http.StatusOK, &page); res.err != nil {
			return res
		}
		res.polls++
		from = page.Next
		for _, ev := range page.Events {
			if ev.Type == events.TypeStateChange && ev.Phase == events.PhaseEnd {
				state, _ = ev.Fields["to"].(string)
			}
		}
		if state != "" && state != string(jobs.StateCompleted) {
			res.err = fmt.Errorf("finished as %s", state)
			return res
		}
	}

	fetchStart := time.Now()
	var artifact []byte
	if res.err = svc.call(ctx, http.MethodGet, "/jobs/"+view.ID+"/artifact", nil, http.StatusOK, &artifact); res.err != nil {
		return res
	}
	res.fetch = time.Since(fetchStart)
	recs, err := output.ReadBinary(bytes.NewReader(artifact))
	if err != nil {
		res.err = fmt.Errorf("artifact unreadable: %w", err)
		return res
	}
	res.latency = time.Since(start)

	// Off the clock: final counters, oracle and digest gates.
	if res.err = svc.call(ctx, http.MethodGet, "/jobs/"+view.ID, nil, http.StatusOK, &view); res.err != nil {
		return res
	}
	res.launched, res.frontier = view.Launched, view.RecordsEmitted
	if uint64(len(recs)) != view.RecordsEmitted {
		res.err = fmt.Errorf("artifact holds %d records, frontier is %d", len(recs), view.RecordsEmitted)
		return res
	}
	rep := validate.BuildReport(s.oracle, view.Spec.Strategy, recs)
	res.exact, res.est = rep.Counts[validate.VerdictExact], rep.Estimates()
	if bad := rep.Counts[validate.VerdictOver] + rep.BoundViolations(); bad > 0 {
		res.err = fmt.Errorf("%d overestimates or bound violations against the oracle", bad)
		return res
	}
	res.err = s.sameDigest(k, digestOf(artifact))
	return res
}

// sameDigest holds job k's artifact to the bytes its first run produced.
func (s *serveInstance) sameDigest(k int, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.digests[k]; !ok {
		s.digests[k] = digest
	} else if first != digest {
		return fmt.Errorf("artifact changed between rounds: sha256 %s, first %s", digest, first)
	}
	return nil
}

// call makes one HTTP request and decodes the reply into out: raw bytes
// for *[]byte, JSON otherwise. Any status but want is an error.
func (s *service) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.server.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}
