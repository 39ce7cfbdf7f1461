package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/flight"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/timeseries"
)

// The `make race` centerpiece for the per-shard engine split: every
// cross-shard surface that survived the refactor — the k-way merge, the
// timeseries store, the debug server's shard registry table — exercised
// at once. An 8-shard parallel scan streams through the merge with
// telemetry armed; eight per-shard checkpoint interrupt loops
// (Shard=s/Shards=8, the cross-process distribution shape) splice their
// slices through TimeLimit/Resume cycles against a second shard-aware
// debug server; and scraper goroutines hammer /metrics, /metrics.json
// and /timeseries on both servers the whole time. Any shared mutable
// state outside the documented mutex-guarded surfaces shows up here as
// a race report; any perturbation of engine state by observation shows
// up as a byte diff against the uninterrupted references.

// raceShardCfg is the per-shard configuration for the interrupt loops:
// rate 50 against a ~3s probe tail gives each 1/8 slice enough virtual
// runway (~8s) for the 3.6s limits to land mid-scan at least once.
func raceShardCfg(shard int) ScanConfig {
	return ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.004,
		Rate: 50, MSSList: []int{64}, Repeats: 1,
		Shard: uint64(shard), Shards: 8,
	}
}

func TestParallelScrapeCheckpointRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute under -race; skipping in -short")
	}
	u := inet.NewInternet2017(2017)

	// Uninterrupted per-shard references, no observation armed. The
	// concurrent interrupted runs must reproduce these bytes exactly.
	refs := make([][]byte, 8)
	for s := 0; s < 8; s++ {
		var buf bytes.Buffer
		cfg := raceShardCfg(s)
		cfg.Sink = output.NewBinarySink(&buf)
		res, err := RunScanChecked(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete || buf.Len() == 0 {
			t.Fatalf("shard %d reference run incomplete or empty", s)
		}
		refs[s] = buf.Bytes()
	}

	parDbg := flight.NewDebugServer()
	parSrv := httptest.NewServer(parDbg.Handler())
	defer parSrv.Close()
	ckDbg := flight.NewDebugServer()
	ckSrv := httptest.NewServer(ckDbg.Handler())
	defer ckSrv.Close()

	// 503 is the debug server's documented not-yet-attached answer and
	// the scrapers start before either scan has attached anything, so it
	// means "retry"; what is required instead is that every path on
	// both servers answered 200 at least once by the end.
	done := make(chan struct{})
	var scrapers sync.WaitGroup
	paths := []string{"/metrics", "/metrics.json", "/timeseries"}
	for _, base := range []string{parSrv.URL, ckSrv.URL} {
		scrapers.Add(1)
		go func(base string) {
			defer scrapers.Done()
			oks := make([]int, len(paths))
			for i := 0; ; i++ {
				select {
				case <-done:
					for p, n := range oks {
						if n == 0 {
							t.Errorf("scrape %s%s: never answered 200", base, paths[p])
						}
					}
					return
				default:
				}
				path := paths[i%len(paths)]
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("scrape %s: %v", base, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					oks[i%len(paths)]++
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("scrape %s%s: status %d", base, path, resp.StatusCode)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(base)
	}

	var workers sync.WaitGroup

	// Worker A: the 8-shard parallel scan, telemetry + debug armed,
	// streaming IWB1 through the k-way merge while being scraped.
	var parBuf bytes.Buffer
	workers.Add(1)
	go func() {
		defer workers.Done()
		cfg := ScanConfig{
			Seed: 11, Strategy: core.StrategyHTTP, SampleFraction: 0.003,
			Rate: 10000, MSSList: []int{64}, Repeats: 1,
			Sink:       output.NewBinarySink(&parBuf),
			Timeseries: timeseries.NewStore(timeseries.Config{Ring: 64}),
			Debug:      parDbg,
		}
		res, err := RunScanParallelChecked(u, cfg, 8)
		if err != nil {
			t.Errorf("parallel scan: %v", err)
			return
		}
		if res.Incomplete || parBuf.Len() == 0 {
			t.Error("parallel scan incomplete or produced no output")
		}
	}()

	// Workers B: eight per-shard checkpoint interrupt loops. Each shard
	// is its own scan instance (its own checkpoint file and cursor, as
	// cross-process ZMap distribution would be), repeatedly killed by a
	// virtual TimeLimit and resumed, with telemetry flowing into one
	// shared store and its registry attached to the shared debug server.
	ckStore := timeseries.NewStore(timeseries.Config{Ring: 64})
	ckDbg.SetTimeseries(ckStore)
	dir := t.TempDir()
	interrupts := make([]int, 8)
	for s := 0; s < 8; s++ {
		workers.Add(1)
		go func(s int) {
			defer workers.Done()
			var got bytes.Buffer
			ckPath := filepath.Join(dir, fmt.Sprintf("shard%d.ck", s))
			limits := []netsim.Time{3600 * netsim.Millisecond, 3700 * netsim.Millisecond}
			for seg := 0; ; seg++ {
				if seg >= 40 {
					t.Errorf("shard %d: no completion within 40 segments", s)
					return
				}
				cfg := raceShardCfg(s)
				cfg.CheckpointPath = ckPath
				cfg.CheckpointInterval = netsim.Second
				cfg.TimeLimit = limits[seg%len(limits)]
				cfg.Timeseries = ckStore
				cfg.Debug = ckDbg
				if seg == 0 {
					cfg.Sink = output.NewBinarySink(&got)
				} else {
					st, err := checkpoint.Load(ckPath)
					if err != nil {
						t.Errorf("shard %d segment %d: %v", s, seg, err)
						return
					}
					cfg.Resume = st
					cfg.Sink, _ = output.NewFileSink(&got, "bin", true)
				}
				res, err := RunScanChecked(u, cfg)
				if err != nil {
					t.Errorf("shard %d segment %d: %v", s, seg, err)
					return
				}
				if !res.Incomplete {
					break
				}
				interrupts[s]++
			}
			if !bytes.Equal(got.Bytes(), refs[s]) {
				t.Errorf("shard %d: spliced output under concurrent scrapes differs from reference (%d vs %d bytes)",
					s, got.Len(), len(refs[s]))
			}
		}(s)
	}

	workers.Wait()
	close(done)
	scrapers.Wait()
	if t.Failed() {
		return
	}

	total := 0
	for s, n := range interrupts {
		t.Logf("shard %d: %d checkpoint interrupts", s, n)
		total += n
	}
	if total < 4 {
		t.Errorf("only %d checkpoint interrupts across 8 shards; limits are not landing mid-scan", total)
	}

	// The scraped metrics must include the per-shard pool counters the
	// engine split introduced — proof the per-network pools report
	// through the registry path the scrapes just hammered.
	resp, err := http.Get(parSrv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"netsim.packets_pooled", "netsim.pool_miss"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("final /metrics.json scrape missing %s", name)
		}
	}
}
