package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iwscan/internal/events"
	"iwscan/internal/metrics"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	dbg := NewDebugServer()
	srv := httptest.NewServer(dbg.Handler())
	defer srv.Close()

	// Before the scan attaches anything, data endpoints answer 503 but
	// the index and pprof stay up.
	for _, path := range []string{"/metrics", "/metrics.json", "/flight"} {
		if code, _ := get(t, srv, path); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before attach = %d, want 503", path, code)
		}
	}
	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "/flight") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d, want 200", code)
	}
	if code, body := get(t, srv, "/debug/vars"); code != 200 || !strings.HasPrefix(body, "{") {
		t.Fatalf("expvar = %d %q", code, body[:min(len(body), 40)])
	}

	// Attach a registry and a recorder with one frozen record.
	reg := metrics.NewRegistry()
	rec := newRecorder(Config{Triggers: map[string]bool{"all": true}})
	rec.BindMetrics(reg)
	record(rec, targetAddr, "ghost")
	dbg.SetRegistry(reg)
	dbg.SetRecorder(rec)

	code, body := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "flight_records_frozen 1") {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}
	code, body = get(t, srv, "/metrics.json")
	if code != 200 || !strings.Contains(body, "flight.records_frozen") {
		t.Fatalf("/metrics.json = %d\n%s", code, body)
	}

	code, body = get(t, srv, "/flight")
	if code != 200 {
		t.Fatalf("/flight = %d", code)
	}
	var listing struct {
		TotalFrozen int64 `json:"total_frozen"`
		Retained    int   `json:"retained"`
		Records     []struct {
			Target  string `json:"target"`
			Verdict string `json:"verdict"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("/flight not JSON: %v\n%s", err, body)
	}
	if listing.TotalFrozen != 1 || listing.Retained != 1 ||
		listing.Records[0].Target != targetAddr.String() || listing.Records[0].Verdict != "ghost" {
		t.Fatalf("/flight listing = %+v", listing)
	}

	// Per-record formats.
	code, body = get(t, srv, "/flight/0?fmt=txt")
	if code != 200 || !strings.Contains(body, "DROP loss") {
		t.Fatalf("/flight/0?fmt=txt = %d\n%s", code, body)
	}
	code, body = get(t, srv, "/flight/0?fmt=trace")
	if code != 200 {
		t.Fatalf("/flight/0?fmt=trace = %d", code)
	}
	if _, err := events.ValidateTraceEvents([]byte(body)); err != nil {
		t.Fatalf("served trace export invalid: %v", err)
	}
	code, body = get(t, srv, "/flight/0")
	if code != 200 || !strings.Contains(body, `"verdict": "ghost"`) {
		t.Fatalf("/flight/0 = %d\n%s", code, body)
	}

	// Error paths.
	if code, _ := get(t, srv, "/flight/7"); code != http.StatusNotFound {
		t.Fatalf("/flight/7 = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/flight/x"); code != http.StatusBadRequest {
		t.Fatalf("/flight/x = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/flight/0?fmt=bogus"); code != http.StatusBadRequest {
		t.Fatalf("fmt=bogus = %d, want 400", code)
	}
}

// TestDebugServerResetBetweenJobs is the sequential-jobs regression
// test: after Reset the server must answer 503 again (no stale
// registries served), and a following job's attach must expose only its
// own shards — a prior 4-shard job's registries must not keep merging
// into the new job's /metrics.
func TestDebugServerResetBetweenJobs(t *testing.T) {
	dbg := NewDebugServer()
	srv := httptest.NewServer(dbg.Handler())
	defer srv.Close()

	launched := func() int64 {
		t.Helper()
		code, body := get(t, srv, "/metrics.json")
		if code != 200 {
			t.Fatalf("GET /metrics.json = %d", code)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("parsing snapshot: %v", err)
		}
		return snap.Counters["engine.launched"]
	}

	// Job 1: two shards, 100 + 40 launches.
	reg0, reg1 := metrics.NewRegistry(), metrics.NewRegistry()
	reg0.Counter("engine.launched").Add(100)
	reg1.Counter("engine.launched").Add(40)
	dbg.AttachShard(0, reg0)
	dbg.AttachShard(1, reg1)
	dbg.SetRecorder(NewRecorder(Config{}))
	if got := launched(); got != 140 {
		t.Fatalf("job 1 merged launched = %d, want 140", got)
	}

	// Between jobs: back to the pre-attach state, 503 on every data
	// endpoint, nothing stale served.
	dbg.Reset()
	for _, path := range []string{"/metrics", "/metrics.json", "/flight"} {
		if code, _ := get(t, srv, path); code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s after Reset = %d, want 503", path, code)
		}
	}

	// Job 2: a serial job attaching only shard 0. Its numbers must not
	// include job 1's shard-1 registry.
	reg2 := metrics.NewRegistry()
	reg2.Counter("engine.launched").Add(7)
	dbg.AttachShard(0, reg2)
	if got := launched(); got != 7 {
		t.Fatalf("job 2 launched = %d, want 7 (stale job-1 registries still attached)", got)
	}
}
