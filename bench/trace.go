package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// layer names a span: the module boundary a traced call crosses.
type layer uint8

const (
	// layerScan is the root: one shard's whole scan. Its self time is
	// what runs outside the event loop — building the target space, the
	// network and the engine, and the final flush — a fixed cost that
	// only shows on a short scan.
	layerScan layer = iota
	// layerRun is netsim.RunUntilIdle. Its self time is what no wrapper
	// claims — the event queue, delivery bookkeeping, the engine's pump,
	// and every timer callback (tcpstack RTOs, core timeouts), because
	// timers fire from inside netsim where the benchmark cannot wrap
	// them.
	layerRun
	layerCreateHost
	layerHostPacket
	layerCoreHandle
	layerProbeTarget
	layerEnrich
	layerReorder
	layerSink
	numLayers
)

var layerNames = [numLayers]string{
	layerScan:        "experiments.run_scan",
	layerRun:         "netsim.run_until_idle",
	layerCreateHost:  "inet.create_host",
	layerHostPacket:  "tcpstack.handle_packet",
	layerCoreHandle:  "core.handle_packet",
	layerProbeTarget: "core.probe_target",
	layerEnrich:      "analysis.enrich",
	layerReorder:     "output.reorder_add",
	layerSink:        "output.sink_write",
}

// span is one traced call. Target is the probed address — the
// identifier every span of one probe shares. Parent indexes the
// tracer's span slice (-1 for a root).
type span struct {
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Target     uint32
	Layer      layer
}

// tracer keeps spans in memory. One simulation is single-threaded, so
// the open spans form a stack and the parent of a new span is its top;
// a sharded run uses one tracer per shard.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(l layer, target uint32) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Parent: parent, Target: target, Layer: l})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerTotals is the ledger one trace reduces to: per layer, the self
// time (span duration minus the time its child spans cover) and the
// number of spans.
type layerTotals struct {
	SelfNS [numLayers]int64
	Count  [numLayers]int64
}

// selfTimes computes the ledger. Children of one parent never overlap
// (they come off one call stack), so the covered part of a span is the
// sum of its children's durations.
func selfTimes(spans []span) layerTotals {
	var lt layerTotals
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		lt.SelfNS[s.Layer] += d
		lt.Count[s.Layer]++
		if s.Parent >= 0 {
			lt.SelfNS[spans[s.Parent].Layer] -= d
		}
	}
	return lt
}

func (lt *layerTotals) add(o layerTotals) {
	for l := range lt.SelfNS {
		lt.SelfNS[l] += o.SelfNS[l]
		lt.Count[l] += o.Count[l]
	}
}

func (lt *layerTotals) total() int64 {
	var sum int64
	for _, ns := range lt.SelfNS {
		sum += ns
	}
	return sum
}

// writeSpans dumps the tracers' spans as JSON lines (one tracer per
// shard), the raw material behind the ledger.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Shard   int    `json:"shard"`
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		Target  uint32 `json:"target"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for shard, t := range tracers {
		for id, s := range t.spans {
			if err := enc.Encode(line{shard, id, s.Parent, layerNames[s.Layer], s.Target, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
