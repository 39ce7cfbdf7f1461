package core

import (
	"reflect"
	"testing"

	"iwscan/internal/stats"
)

// insertRebuild is the insert coverage shipped with before it merged in
// place: it builds a fresh interval slice on every call. It stays here
// as the oracle of the property test below.
func insertRebuild(ivals [][2]int, start, end int) [][2]int {
	var out [][2]int
	placed := false
	for _, iv := range ivals {
		switch {
		case iv[1] < start:
			out = append(out, iv)
		case end < iv[0]:
			if !placed {
				out = append(out, [2]int{start, end})
				placed = true
			}
			out = append(out, iv)
		default:
			// Overlapping or adjacent: merge.
			if iv[0] < start {
				start = iv[0]
			}
			if iv[1] > end {
				end = iv[1]
			}
		}
	}
	if !placed {
		out = append(out, [2]int{start, end})
	}
	return out
}

// addRebuild is coverage.add over insertRebuild.
func addRebuild(c *coverage, start, end int) addKind {
	if end <= start {
		return addRetransmit
	}
	kind := addNew
	if len(c.ivals) > 0 && start < c.ivals[len(c.ivals)-1][1] {
		if c.covered(start, end) {
			return addRetransmit
		}
		kind = addReorder
	}
	c.ivals = insertRebuild(c.ivals, start, end)
	return kind
}

// TestCoverageInsertMatchesRebuild feeds random segment streams —
// in-order runs, reordering, overlap, exact adjacency, duplicates, empty
// and bridging segments — to the in-place insert and to the rebuilding
// oracle, and requires the same intervals and the same classification
// after every step.
func TestCoverageInsertMatchesRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		mss := 1 + rng.Intn(128)
		var got, want coverage
		var sent [][2]int
		next := 0
		for step := 0; step < 120; step++ {
			var start, end int
			switch r := rng.Intn(10); {
			case r < 4: // the next in-order segment
				start, end = next, next+mss
				next = end
			case r < 6: // skip ahead, leaving a hole
				start = next + mss*(1+rng.Intn(3))
				end = start + mss
				next = end
			case r < 8 && len(sent) > 0: // a duplicate of something sent
				iv := sent[rng.Intn(len(sent))]
				start, end = iv[0], iv[1]
			default: // anything: overlapping, bridging, adjacent or empty
				start = rng.Intn(next + mss + 1)
				end = start + rng.Intn(4*mss)
			}
			sent = append(sent, [2]int{start, end})
			k1, k2 := got.add(start, end), addRebuild(&want, start, end)
			if k1 != k2 {
				t.Fatalf("seed %d step %d: add(%d, %d) = %v, oracle says %v", seed, step, start, end, k1, k2)
			}
			if !reflect.DeepEqual(got.ivals, want.ivals) {
				t.Fatalf("seed %d step %d: after add(%d, %d) ivals = %v, oracle has %v", seed, step, start, end, got.ivals, want.ivals)
			}
		}
	}
}

// TestCoverageInsertReusesCapacity: the usual stream — a burst in order
// with the odd reordered pair — must settle into the backing array it
// has instead of building a new one per segment.
func TestCoverageInsertReusesCapacity(t *testing.T) {
	var c coverage
	burst := func() {
		c.ivals = c.ivals[:0]
		for off := 0; off < 640; off += 128 {
			c.add(off+64, off+128) // the later half first
			c.add(off, off+64)
		}
	}
	burst()
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("a reordered burst over warm coverage cost %.1f allocs, want 0", avg)
	}
	if c.contiguous() != 640 || c.hasGap() {
		t.Fatalf("coverage = %v, want one interval [0, 640)", c.ivals)
	}
}
