package main

import (
	"math"
	"runtime/metrics"
	"sort"

	"repro/internal/obs"
)

// state is one reading of everything the benchmark measures from outside:
// the program's obs registry, the estimate-round HDR histogram and the Go
// runtime's counters. Metrics are deltas between two states, so each
// workload pass and each set-up is accounted on its own.
type state struct {
	reg      map[string]obs.FamilySnapshot
	estTotal obs.HDRSnapshot
	rt       []metrics.Sample
}

// Runtime counters read at every state, by index into state.rt.
const (
	rtAllocObjects = iota
	rtAllocBytes
	rtGCCPU
	rtTotalCPU
	rtIdleCPU
	rtHeapLive
)

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

const estTotalFamily = "trendspeed_core_estimate_duration_hdr_seconds"

func readState() state {
	s := state{reg: obs.Default().Snapshot()}
	// The estimate-round histogram (phase=total) is looked up by name once
	// the program has registered it; before the first estimate it is empty.
	if _, ok := s.reg[estTotalFamily]; ok {
		s.estTotal = obs.Default().HDRHistogram(estTotalFamily, "", "phase", "total").Snapshot()
	}
	s.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	return s
}

func (s state) rtValue(i int) float64 {
	v := s.rt[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// field selects what famTotal adds up over a family's children.
type field int

const (
	fValue field = iota // counter or gauge value
	fSum                // histogram sum
	fCount              // histogram count
)

// famTotal adds field over the children of family name whose labels include
// every key/value pair in want.
func famTotal(reg map[string]obs.FamilySnapshot, name string, f field, want ...string) float64 {
	total := 0.0
	for _, m := range reg[name].Metrics {
		match := true
		for i := 0; i+1 < len(want); i += 2 {
			if m.Labels[want[i]] != want[i+1] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		switch {
		case f == fValue && m.Value != nil:
			total += *m.Value
		case f == fSum && m.Sum != nil:
			total += *m.Sum
		case f == fCount && m.Count != nil:
			total += float64(*m.Count)
		}
	}
	return total
}

// delta is the change between two states.
type delta struct{ a, b state }

func (d delta) get(name string, f field, want ...string) float64 {
	return famTotal(d.b.reg, name, f, want...) - famTotal(d.a.reg, name, f, want...)
}

// mean is a histogram's delta sum over its delta count, 0 when empty.
func (d delta) mean(name string, want ...string) float64 {
	return ratio(d.get(name, fSum, want...), d.get(name, fCount, want...))
}

func (d delta) rt(i int) float64 { return d.b.rtValue(i) - d.a.rtValue(i) }

// estTotalQuantile is a quantile of the estimate rounds between the two
// states, from the bucket-wise difference of the HDR histogram.
func (d delta) estTotalQuantile(q float64) float64 {
	diff := d.b.estTotal
	diff.Counts = make([]uint64, len(d.b.estTotal.Counts))
	for i := range diff.Counts {
		diff.Counts[i] = d.b.estTotal.Counts[i]
		if i < len(d.a.estTotal.Counts) {
			diff.Counts[i] -= d.a.estTotal.Counts[i]
		}
	}
	return diff.Quantile(q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
