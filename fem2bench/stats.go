package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/command"
)

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; +Inf samples (failed units) sort last.  It returns
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0: a metric that does not apply.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statDelta is the change of the daemon's metrics over a measured
// phase: counters by name, histogram counts and sums by name.
type statDelta struct {
	counter map[string]int64
	count   map[string]int64
	sumNS   map[string]int64
	gauge   map[string]int64
}

func newStatDelta() *statDelta {
	return &statDelta{counter: map[string]int64{}, count: map[string]int64{},
		sumNS: map[string]int64{}, gauge: map[string]int64{}}
}

// add accumulates after minus before.
func (d *statDelta) add(before, after *command.StatsResult) {
	for _, c := range after.Counters {
		d.counter[c.Name] += c.Value
	}
	for _, c := range before.Counters {
		d.counter[c.Name] -= c.Value
	}
	for _, h := range after.Histograms {
		d.count[h.Name] += h.Count
		d.sumNS[h.Name] += h.SumNS
	}
	for _, h := range before.Histograms {
		d.count[h.Name] -= h.Count
		d.sumNS[h.Name] -= h.SumNS
	}
	for _, g := range after.Gauges {
		d.gauge[g.Name] = g.Value
	}
}

// family sums the count and time of every histogram whose name has the
// prefix, skipping names that also match any of the excluded
// prefixes.
func (d *statDelta) family(prefix string, exclude ...string) (count, sumNS int64) {
next:
	for name, c := range d.count {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, x := range exclude {
			if strings.HasPrefix(name, x) {
				continue next
			}
		}
		count += c
		sumNS += d.sumNS[name]
	}
	return count, sumNS
}

// meanUS is a histogram's mean in microseconds over the phase.
func (d *statDelta) meanUS(name string) float64 {
	return ratio(float64(d.sumNS[name])/1e3, float64(d.count[name]))
}
