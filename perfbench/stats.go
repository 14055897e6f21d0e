package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// opClass is the latency class an operation's sample belongs to. Each
// end-to-end latency metric covers exactly one class, so no percentile
// straddles two operation types.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classScan
	// classOther counts as an operation but records no latency: the
	// ledger's write transactions, which only buffer in memory.
	classOther
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "other"}

// errTooFewSamples reports a percentile that would rest on fewer than
// minTail samples beyond it.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// minTail is the fewest samples that must lie beyond a reported
// percentile: p99 therefore needs at least 1,000 samples.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. It refuses when fewer than minTail samples lie
// beyond the rank, because such a percentile is decided by a handful
// of outliers and does not repeat.
func percentile(sorted []time.Duration, p float64) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %d beyond it, need %d: %w", p, n, n-rank, minTail, errTooFewSamples)
	}
	return sorted[rank-1], nil
}

// sortDurations sorts samples in place and returns them.
func sortDurations(s []time.Duration) []time.Duration {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the median of vs (the mean of the middle two for an
// even count); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// metric is one reported figure. A ratio carries its base — the
// numerator and denominator it was computed from — so a reader can
// tell 0.5 of 2 from 0.5 of 2 million.
type metric struct {
	name  string
	value float64
	unit  string
	// num and den are the ratio's base; den is 0 for a metric that is
	// not a ratio.
	num, den float64
	base     string // what den counts, e.g. "ops"
}

// isRatio reports whether m was computed as num/den.
func (m metric) isRatio() bool { return m.base != "" }

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.4f %s", m.name, m.value, m.unit)
	if m.isRatio() {
		s += fmt.Sprintf("  (%.6g / %.6g %s)", m.num, m.den, m.base)
	}
	return s
}

// ratio builds a metric num/den with its base recorded; a zero den
// yields 0, still with the base shown.
func ratio(name, unit string, num, den float64, base string) metric {
	m := metric{name: name, unit: unit, num: num, den: den, base: base}
	if den != 0 {
		m.value = num / den
	}
	return m
}

// scaled is ratio with the quotient multiplied by k (per-kop, per-µs
// conversions) — the base still records the raw num and den.
func scaled(name, unit string, num, den, k float64, base string) metric {
	m := ratio(name, unit, num, den, base)
	m.value *= k
	return m
}

// plain builds a metric that is not a ratio.
func plain(name, unit string, v float64) metric { return metric{name: name, value: v, unit: unit} }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
