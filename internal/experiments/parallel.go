package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"iwscan/internal/inet"
	"iwscan/internal/output"
	"iwscan/internal/timeseries"
)

// RunScanParallel runs one logical scan as several ZMap-style shards,
// each a fully independent simulator — its own virtual clock, event
// heap, RNG, packet/event pools and metrics registry — on its own
// OS-thread-pinned goroutine, and merges the results. The shards
// partition the permutation exactly, so the merged record set equals a
// single-instance scan of the same space; only wall-clock time
// changes. This mirrors how the paper's scans would be distributed
// across machines. It panics on configuration errors; prefer
// RunScanParallelChecked when using sinks.
func RunScanParallel(u *inet.Universe, cfg ScanConfig, shards int) *ScanResult {
	res, err := RunScanParallelChecked(u, cfg, shards)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// RunScanParallelChecked is RunScanParallel with error reporting. When
// cfg.Sink is set, the shards stream concurrently through a k-way merge
// keyed by global permutation position, so the sink receives one
// ordered stream — byte-identical to what an unsharded scan would
// write — without any shard accumulating its records.
//
// Concurrency model: each shard's RunScanChecked builds a private
// netsim.Network, so nothing mutable is shared between the event
// loops — the universe is a pure function of (seed, address), and
// hosts materialize into the per-shard network's node table. The only
// cross-shard interactions are the bounded k-way output.Merge, the
// (mutex-guarded) timeseries store and debug-server attach points, and
// the final stats fold after Wait. Each loop is pinned to an OS thread
// for its lifetime so the kernel can schedule the shards onto distinct
// cores; per-shard output is byte-identical for any GOMAXPROCS and any
// interleaving (the determinism matrix test in this package holds the
// engine to that).
func RunScanParallelChecked(u *inet.Universe, cfg ScanConfig, shards int) (*ScanResult, error) {
	if shards <= 1 {
		return RunScanChecked(u, cfg)
	}
	if cfg.Flight != nil {
		// The flight recorder is bound to one simulation's observer slot
		// and one scanner; shards would race on it. Forensics are a
		// serial-scan tool. The debug server, by contrast, is shard-aware
		// (per-shard registries merged at snapshot time), so -debug-addr
		// and telemetry work fine under parallel.
		return nil, fmt.Errorf("the flight recorder is per scan instance; run serially or shard across separate runs")
	}
	if cfg.CheckpointPath != "" || cfg.Resume != nil {
		// A checkpoint cursor is consistent with one engine's own output
		// frontier; in-process parallel shards share one sink whose
		// durability lags individual frontiers. Distribute with
		// Shard/Shards across processes instead — each instance then
		// checkpoints (and resumes) its own slice, ZMap-style.
		return nil, fmt.Errorf("checkpointing is per scan instance; use Shard/Shards across separate runs instead of Parallel")
	}
	var merge *output.Merge
	var handles []output.Sink
	if cfg.Sink != nil {
		merge, handles = output.NewMerge(cfg.Sink, shards)
	}
	results := make([]*ScanResult, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			// One OS thread per shard event loop: the loop is a long-running
			// CPU-bound goroutine, and pinning it keeps the Go scheduler from
			// migrating it between Ps mid-scan (migration cost and cache
			// churn were part of the PR 6 contention diagnosis). Unpinning
			// happens implicitly when the goroutine exits.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c := cfg
			c.Shard = uint64(shard)
			c.Shards = uint64(shards)
			if handles != nil {
				c.Sink = handles[shard]
			}
			// All shards progress in lockstep through the same space, so
			// one reporting shard (tagged) tells the whole story without
			// interleaving N writers on one stream.
			label := fmt.Sprintf("[shard 0/%d] ", shards)
			if shard != 0 {
				c.StatusOut = nil
			}
			results[shard], errs[shard] = runScan(u, c, label)
			if handles != nil {
				if err := handles[shard].Close(); err != nil && errs[shard] == nil {
					errs[shard] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The k-way merge's wait accounting tells the telemetry layer which
	// shard the output stream was pacing behind.
	if merge != nil && cfg.Timeseries != nil {
		waits := merge.WaitStats()
		tw := make([]timeseries.MergeWait, len(waits))
		for i, w := range waits {
			tw[i] = timeseries.MergeWait{
				Shard: w.Shard, Writes: w.Writes, MaxQueued: w.MaxQueued,
				Stalls: w.Stalls, BlockedNS: w.BlockedNS,
			}
		}
		cfg.Timeseries.SetMergeWaits(tw)
	}

	merged := &ScanResult{}
	for _, r := range results {
		merged.ShardEngines = append(merged.ShardEngines, r.Engine)
		merged.Records = append(merged.Records, r.Records...)
		merged.Engine.Launched += r.Engine.Launched
		merged.Engine.Completed += r.Engine.Completed
		merged.Engine.Skipped += r.Engine.Skipped
		merged.Engine.Pruned += r.Engine.Pruned
		merged.Engine.Retries += r.Engine.Retries
		merged.Net.PacketsSent += r.Net.PacketsSent
		merged.Net.PacketsDelivered += r.Net.PacketsDelivered
		merged.Net.PacketsDuplicated += r.Net.PacketsDuplicated
		merged.Net.PacketsReordered += r.Net.PacketsReordered
		merged.Net.PacketsLost += r.Net.PacketsLost
		merged.Net.PacketsFiltered += r.Net.PacketsFiltered
		merged.Net.PacketsNoRoute += r.Net.PacketsNoRoute
		merged.Net.PacketsMTUDrop += r.Net.PacketsMTUDrop
		merged.Net.PacketsQueueDrop += r.Net.PacketsQueueDrop
		merged.Net.BytesSent += r.Net.BytesSent
		merged.Net.BytesDelivered += r.Net.BytesDelivered
		merged.Scan.ProbesStarted += r.Scan.ProbesStarted
		merged.Scan.SynAcks += r.Scan.SynAcks
		merged.Scan.PacketsSent += r.Scan.PacketsSent
		merged.Scan.PacketsRcvd += r.Scan.PacketsRcvd
		merged.Scan.Retransmits += r.Scan.Retransmits
		merged.Scan.VerifyReleases += r.Scan.VerifyReleases
		merged.Metrics.Merge(r.Metrics)
		if r.VirtualTime > merged.VirtualTime {
			merged.VirtualTime = r.VirtualTime // shards run concurrently
		}
		if r.MaxBuffered > merged.MaxBuffered {
			merged.MaxBuffered = r.MaxBuffered
		}
	}
	if merge != nil {
		// Shard reorder buffers and the merge queues never hold the
		// record set; report their combined high-water mark.
		merged.MaxBuffered += merge.MaxPending()
	}
	// Deterministic output order regardless of shard scheduling.
	sort.Slice(merged.Records, func(i, j int) bool {
		return merged.Records[i].Addr < merged.Records[j].Addr
	})
	return merged, nil
}
