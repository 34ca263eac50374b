package main

import (
	"math"
	"sort"
	"time"
)

// quantile is one order statistic of a latency sample, reported with
// the rank it was read at so a reader can tell how many samples lie
// beyond it.
type quantile struct {
	P     float64 `json:"p"`
	N     int     `json:"n"`
	Rank  int     `json:"rank"` // 1-based rank in ascending order
	Value float64 `json:"value_ms"`
}

// nearestRank returns the p-quantile of sorted (ascending) by the
// nearest-rank rule: the value at 1-based rank ceil(p·n). For n = 240
// and p = 0.99 that is rank 238, the third-largest value.
func nearestRank(sorted []float64, p float64) quantile {
	n := len(sorted)
	q := quantile{P: p, N: n}
	if n == 0 {
		return q
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	q.Rank = r
	q.Value = sorted[r-1]
	return q
}

// latencies accumulates one operation's client-observed times.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
}

func (l *latencies) merge(o *latencies) { l.ms = append(l.ms, o.ms...) }

// summary sorts the sample and reads the median, the p95 and the p99.
func (l *latencies) summary() (p50, p95, p99 quantile) {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return nearestRank(s, 0.50), nearestRank(s, 0.95), nearestRank(s, 0.99)
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5).Value
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (the layer did no work of
// that kind on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
