// Command iwserve runs the scan-service control plane: a daemon that
// accepts scan jobs over HTTP, schedules them fairly across tenants,
// and survives restarts without perturbing a single output byte.
//
// Each job is a complete scan spec (target universe, probe strategy,
// adversity profile, output format, tenant identity and rate budget)
// submitted as JSON. The daemon slices every job into short virtual-time
// segments and interleaves segments across tenants with a virtual-time
// fair-share scheduler: tenants receive probe budget in proportion to
// their weights, and a job's engine rate is capped at its tenant's share
// of the global probes-per-second budget (the paper's §3.4 uplink
// arithmetic — 150 kpps by default). Jobs can be paused, resumed and
// cancelled at any time; requests take effect at the next segment
// boundary, where the engine cursor and artifact are persisted in one
// atomic write. A paused-then-resumed job — including across a daemon
// restart — produces byte-identical output to an uninterrupted run.
//
// Every control-plane decision is journaled: the daemon appends one
// structured event per state transition, scheduler dispatch (with the
// losing candidates and their virtual times), vtime charge/settlement,
// segment and shard execution, checkpoint write and restart-recovery
// action to an append-only events.jsonl under the state directory.
// The journal is observational only — artifacts stay byte-identical
// with it armed — and sequence numbers continue monotonically across
// restarts. Watch endpoints stream it live over SSE; `iwtrace jobs`
// validates it offline and exports the span tree as a Chrome trace.
//
// API (see internal/jobs for the handlers):
//
//	POST /jobs                 submit (JSON spec) → job view
//	GET  /jobs                 list jobs
//	GET  /jobs/{id}            job detail
//	POST /jobs/{id}/pause      pause at the next segment boundary
//	POST /jobs/{id}/resume     re-queue a paused job
//	POST /jobs/{id}/cancel     cancel, keeping the artifact prefix
//	GET  /jobs/{id}/artifact   download the durable artifact prefix
//	GET  /jobs/{id}/debug/     per-job live debug (/metrics, /dash, ...)
//	GET  /jobs/{id}/events     one job's journal page (?from=&limit=&wait=)
//	GET  /jobs/{id}/watch      live SSE stream for one job
//	GET  /events               full journal page (?from=&limit=&wait=)
//	GET  /events/watch         live SSE stream, all events
//	GET  /scheduler            fair-share accounts and budget state
//	GET  /scheduler/audit      scheduler decisions (dispatch/vtime events)
//	GET  /metrics              control-plane metrics, Prometheus format
//	GET  /metrics.json         same snapshot as JSON
//	GET  /dash/jobs            live control-plane dashboard
//	GET  /healthz              liveness + journal high-water mark
//
// Examples:
//
//	iwserve -state /var/lib/iwscan -addr :8070
//	iwserve -state ./serve -budget 150000 -concurrency 4
//	curl -s -X POST localhost:8070/jobs -d '{"tenant":"acme","seed":7,"sample_fraction":0.01}'
//	curl -s localhost:8070/scheduler | jq .tenants
//	curl -sN localhost:8070/events/watch?from=1   # SSE replay + live tail
//	iwtrace jobs -validate serve/events/events.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"iwscan/internal/events"
	"iwscan/internal/jobs"
	"iwscan/internal/netsim"
)

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a slow or stalled connection cannot hold a
// server goroutine open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr        = flag.String("addr", "localhost:8070", "HTTP listen address")
		state       = flag.String("state", "iwserve-state", "durable state directory (jobs, artifacts, checkpoints)")
		budget      = flag.Float64("budget", 150000, "global probe budget in probes/sec of virtual time, split across tenants by weight (§3.4)")
		concurrency = flag.Int("concurrency", 2, "segments executing concurrently")
		slice       = flag.Duration("slice", 10*time.Second, "virtual-time length of one scheduling segment (pause/cancel granularity)")
		eventsDir   = flag.String("events", "", "event-journal directory (default <state>/events; empty string for the default, \"off\" to disarm)")
		heartbeat   = flag.Duration("heartbeat", 5*time.Second, "SSE heartbeat interval for /events/watch streams")
	)
	flag.Parse()

	cfg := jobs.Config{
		Dir:           *state,
		BudgetPPS:     *budget,
		MaxConcurrent: *concurrency,
		SliceVirtual:  netsim.Time(*slice),
	}

	// Arm the journal before anything else touches the state directory:
	// an unwritable or foreign-file-bearing events dir is a named,
	// actionable refusal at startup, not a mid-scan surprise (the same
	// guard iwscan applies to -flight-dir).
	journalDir := *eventsDir
	if journalDir == "" {
		journalDir = filepath.Join(*state, "events")
	}
	if journalDir != "off" {
		j, err := events.Open(journalDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iwserve: events dir:", err)
			os.Exit(1)
		}
		cfg.Events = j
	}

	m, err := jobs.NewManager(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iwserve:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iwserve:", err)
		os.Exit(1)
	}
	js := jobs.NewServer(m)
	js.Heartbeat = *heartbeat
	srv := &http.Server{Handler: js.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	fmt.Printf("iwserve: listening on http://%s (state %s, budget %.0f pps, %d slots, journal %s)\n",
		ln.Addr(), *state, *budget, *concurrency, journalDir)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("iwserve: %s — draining to segment boundaries\n", s)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "iwserve:", err)
	}

	// Graceful stop: drain the manager first — every executing segment
	// reaches its pause point, the journal records server_shutdown and
	// closes, and closing it releases every SSE watcher (their streams
	// end with the terminal event). Only then can srv.Shutdown drain
	// the HTTP side, because watch handlers block until the journal
	// closes: the reverse order would deadlock the drain on its own
	// watchers until the timeout.
	m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()
	fmt.Println("iwserve: state drained, bye")
}
