package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics (q in [0,1])
// of an ascending slice; it is 0 for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailPercentiles are the candidates pickPercentile chooses from, in
// ascending order.
var tailPercentiles = []int{50, 75, 90, 95, 99}

// pickPercentile returns the highest candidate percentile that still
// leaves at least ten samples beyond it — the tail figure the
// choosing-metrics guide asks for — or 50 when even the median has
// fewer than ten above it.
func pickPercentile(n int) int {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n, p int) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples (ceil(p/100 * n), at least 1).
func nearestRank(n, p int) int {
	r := (n*p + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank p-th percentile of xs: an observed
// sample, never an interpolation, so a tail figure is a latency some
// operation really had.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// supported lowers the percentile p to the highest candidate that n
// samples can carry: eight census reps cannot carry a p95, and their
// maximum reported under that name would be the noisiest figure of the
// run.
func supported(n, p int) int {
	if best := pickPercentile(n); best < p {
		return best
	}
	return p
}

// quietBlock is how many consecutive ops quietHalf ranks together:
// about half a second of rescans, under two seconds of jobs.
const quietBlock = 10

// quietHalf returns the samples of the quieter half of a run, given in
// the order they were taken, lower being better: consecutive blocks of
// quietBlock samples are ranked by their median and the better half of
// the blocks is kept. A series too short for two blocks — seven census
// reps, three serve rounds — is ranked sample by sample.
//
// The reps of a run repeat the same deterministic work, a shared host
// disturbs them in bursts of seconds, and a burst only ever adds time;
// taken over the whole run, one burst covering a tenth of it doubles a
// p95. Slowness that is the program's own — a pause every so many ops
// — falls into every block alike and stays in the figure.
func quietHalf(xs []float64) []float64 {
	size := quietBlock
	if len(xs) < 2*quietBlock {
		size = 1
	}
	n := len(xs) / size
	if n < 2 {
		return xs
	}
	blocks := make([][]float64, n)
	for i := range blocks {
		blocks[i] = xs[i*size : (i+1)*size]
	}
	blocks[n-1] = xs[(n-1)*size:] // the last block takes the remainder
	sort.SliceStable(blocks, func(i, j int) bool { return median(blocks[i]) < median(blocks[j]) })
	var kept []float64
	for _, b := range blocks[:(n+1)/2] {
		kept = append(kept, b...)
	}
	return kept
}

// summary describes the raw samples behind one reported value, so a
// reader (and -compare) can tell a steady metric from a noisy one.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{
		N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1],
	}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
