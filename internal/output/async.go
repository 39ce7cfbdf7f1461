package output

import (
	"errors"
	"sync"
	"sync/atomic"

	"iwscan/internal/analysis"
)

// AsyncSink decouples the producer (the scan loop) from a possibly slow
// destination sink: records go into a bounded queue drained by one
// writer goroutine. When the queue is full, WriteRecord blocks — the
// producer feels backpressure instead of the queue growing without
// bound, keeping total scan memory O(queue), not O(targets). A write
// error in the drain goroutine is sticky: every later call reports it.
// Writes may come from multiple goroutines, but Close must only be
// called after all producers have stopped writing.
type AsyncSink struct {
	ch     chan asyncItem
	done   chan struct{}
	mu     sync.Mutex
	err    error
	closed bool
	size   atomic.Int64 // dst's Size after the last drained Flush; -1 = unknown
}

type asyncItem struct {
	rec   *analysis.Record
	flush chan error // non-nil: flush barrier, no record
}

// NewAsyncSink starts the drain goroutine over dst with the given queue
// capacity (minimum 1).
func NewAsyncSink(dst Sink, queue int) *AsyncSink {
	if queue < 1 {
		queue = 1
	}
	a := &AsyncSink{ch: make(chan asyncItem, queue), done: make(chan struct{})}
	a.size.Store(-1)
	go a.drain(dst)
	return a
}

func (a *AsyncSink) drain(dst Sink) {
	defer close(a.done)
	for it := range a.ch {
		if it.flush != nil {
			err := dst.Flush()
			if sz, ok := dst.(Sizer); ok {
				if n, known := sz.Size(); known {
					a.size.Store(n)
				}
			}
			it.flush <- err
			continue
		}
		if a.Err() != nil {
			continue // drop after first error; producer sees it on next call
		}
		if err := dst.WriteRecord(it.rec); err != nil {
			a.setErr(err)
		}
	}
	if err := dst.Close(); err != nil {
		a.setErr(err)
	}
}

func (a *AsyncSink) setErr(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

// Err returns the sticky error, if any.
func (a *AsyncSink) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Depth returns the number of records currently queued and not yet
// drained — an instantaneous backpressure signal (at Cap the producer
// blocks). Safe to call from any goroutine.
func (a *AsyncSink) Depth() int { return len(a.ch) }

// Cap returns the queue capacity.
func (a *AsyncSink) Cap() int { return cap(a.ch) }

// Size forwards the destination's Size as of the last Flush (unknown
// before the first one, or when the destination is not a Sizer).
func (a *AsyncSink) Size() (int64, bool) {
	n := a.size.Load()
	return n, n >= 0
}

// WriteRecord enqueues a copy of r, blocking while the queue is full.
func (a *AsyncSink) WriteRecord(r *analysis.Record) error {
	if err := a.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return errors.New("output: write to closed AsyncSink")
	}
	rec := *r
	a.ch <- asyncItem{rec: &rec}
	return nil
}

// Flush drains everything queued so far through the destination sink
// and flushes it, returning any sticky error. Checkpointing calls this
// before persisting a cursor, so "records below the frontier are
// durable" holds across the async boundary.
func (a *AsyncSink) Flush() error {
	a.mu.Lock()
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return a.Err()
	}
	ack := make(chan error, 1)
	a.ch <- asyncItem{flush: ack}
	if err := <-ack; err != nil {
		a.setErr(err)
	}
	return a.Err()
}

// Close drains the queue, closes the destination sink and stops the
// goroutine. Further writes fail.
func (a *AsyncSink) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		<-a.done
		return a.Err()
	}
	a.closed = true
	a.mu.Unlock()
	close(a.ch)
	<-a.done
	return a.Err()
}
