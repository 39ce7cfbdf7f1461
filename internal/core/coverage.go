package core

import "slices"

// coverage tracks which byte ranges of the server's response stream have
// been received, so the prober can distinguish new data, reordered data
// (a hole that later fills), retransmissions (a fully covered range
// arriving again) and loss (a hole that never fills). Offsets are
// relative to the first response byte.
type coverage struct {
	ivals [][2]int // sorted, disjoint, non-adjacent [start, end) intervals
}

// addKind classifies one segment arrival.
type addKind int

const (
	addNew        addKind = iota // extends coverage in order
	addReorder                   // new bytes, but behind the furthest point
	addRetransmit                // entirely covered already
)

// add records the range [start, end) and classifies the arrival.
func (c *coverage) add(start, end int) addKind {
	if end <= start {
		return addRetransmit // empty segments carry no information
	}
	kind := addNew
	if len(c.ivals) > 0 {
		last := c.ivals[len(c.ivals)-1]
		if start < last[1] {
			// Begins behind the furthest received byte: either a
			// retransmission or a reordered/ gap-filling segment.
			if c.covered(start, end) {
				return addRetransmit
			}
			kind = addReorder
		}
	}
	c.insert(start, end)
	return kind
}

// covered reports whether [start, end) lies entirely inside existing
// intervals.
func (c *coverage) covered(start, end int) bool {
	for _, iv := range c.ivals {
		if start >= iv[0] && end <= iv[1] {
			return true
		}
	}
	return false
}

// insert merges [start, end) into the interval set in place: the
// intervals it overlaps or touches collapse into one, the rest shift,
// and the backing array is reallocated only when the set grows past it.
func (c *coverage) insert(start, end int) {
	// ivals[lo:hi] are the intervals that overlap or touch [start, end).
	lo := 0
	for lo < len(c.ivals) && c.ivals[lo][1] < start {
		lo++
	}
	hi := lo
	for hi < len(c.ivals) && c.ivals[hi][0] <= end {
		hi++
	}
	if lo == hi {
		c.ivals = slices.Insert(c.ivals, lo, [2]int{start, end})
		return
	}
	c.ivals[lo] = [2]int{min(start, c.ivals[lo][0]), max(end, c.ivals[hi-1][1])}
	c.ivals = slices.Delete(c.ivals, lo+1, hi)
}

// contiguous returns the end of the contiguous prefix starting at 0.
func (c *coverage) contiguous() int {
	if len(c.ivals) == 0 || c.ivals[0][0] != 0 {
		return 0
	}
	return c.ivals[0][1]
}

// total returns the number of distinct bytes covered.
func (c *coverage) total() int {
	sum := 0
	for _, iv := range c.ivals {
		sum += iv[1] - iv[0]
	}
	return sum
}

// hasGap reports whether coverage has internal holes or does not start
// at offset zero.
func (c *coverage) hasGap() bool {
	if len(c.ivals) == 0 {
		return false
	}
	return len(c.ivals) > 1 || c.ivals[0][0] != 0
}

// max returns the highest covered offset.
func (c *coverage) max() int {
	if len(c.ivals) == 0 {
		return 0
	}
	return c.ivals[len(c.ivals)-1][1]
}
