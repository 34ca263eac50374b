package main

import (
	"testing"
	"time"
)

func TestNearestRankOrderStatistic(t *testing.T) {
	sorted := make([]float64, 240)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// 240 samples put the p99 at rank ceil(237.6) = 238: the
	// third-largest value, with two samples beyond it.
	q := nearestRank(sorted, 0.99)
	if q.N != 240 || q.Rank != 238 || q.Value != 238 {
		t.Fatalf("p99 of 240 = %+v, want n 240 rank 238 value 238", q)
	}
	if q := nearestRank(sorted, 0.5); q.Rank != 120 || q.Value != 120 {
		t.Fatalf("p50 of 240 = %+v, want rank 120", q)
	}
	if q := nearestRank(sorted[:1], 0.99); q.N != 1 || q.Rank != 1 || q.Value != 1 {
		t.Fatalf("p99 of one sample = %+v", q)
	}
	if q := nearestRank(nil, 0.5); q.N != 0 || q.Rank != 0 {
		t.Fatalf("empty sample = %+v, want n 0 rank 0", q)
	}
}

func TestLatencySummaryReportsSampleCount(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // unsorted input
		l.add(time.Duration(i) * time.Millisecond)
	}
	p50, p95, p99 := l.summary()
	for _, c := range []struct {
		q          quantile
		rank       int
		wantMillis float64
	}{{p50, 50, 50}, {p95, 95, 95}, {p99, 99, 99}} {
		if c.q.N != 100 || c.q.Rank != c.rank || c.q.Value != c.wantMillis {
			t.Errorf("quantile %+v, want n 100 rank %d value %v", c.q, c.rank, c.wantMillis)
		}
	}
}
