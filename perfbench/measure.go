package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs (sorted in place), interpolating
// linearly between closest ranks. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs in place.
func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpu   time.Duration // user + system
	ctxsw int64         // voluntary + involuntary context switches
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw: ru.Nvcsw + ru.Nivcsw,
	}
}

// rtSample is the Go runtime's view of the process at one instant.
type rtSample struct {
	allocs   uint64
	gcCycles uint64
	sched    *metrics.Float64Histogram
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/sched/latencies:seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), sched: s[2].Value.Float64Histogram()}
}

// liveHeapMB collects garbage and returns the heap the last GC marked live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// histQuantile estimates the q-quantile of a bucketed histogram, given
// upper bounds (len(counts)-1 of them, the last bucket unbounded), by
// linear interpolation inside the bucket that holds the rank. The first
// bucket's lower edge is 0; the unbounded bucket reports its lower edge.
func histQuantile(bounds []float64, counts []float64, q float64) float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	seen := 0.0
	for i, c := range counts {
		if c > 0 && seen+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-seen)/c
		}
		seen += c
	}
	return bounds[len(bounds)-1]
}

// schedQuantile is the q-quantile of the scheduling latencies observed
// between two runtime samples.
func schedQuantile(a, b rtSample, q float64) float64 {
	h := b.sched
	counts := make([]float64, len(h.Counts))
	for i := range counts {
		counts[i] = float64(h.Counts[i] - a.sched.Counts[i])
	}
	// Buckets holds len(Counts)+1 edges, the first possibly -Inf and the
	// last +Inf; bucket i spans [Buckets[i], Buckets[i+1]).
	return histQuantile(h.Buckets[1:len(h.Buckets)-1], counts, q)
}

// regSnap is one scrape of an obs.Registry, summed over every label but
// "le": plain series map by name, histogram buckets by name plus bound.
type regSnap map[string]float64

// scrape renders the registry through its public exposition and parses it
// back, so the benchmark reads exactly what a /metrics scrape shows.
func scrape(r *obs.Registry) regSnap {
	var b bytes.Buffer
	r.WriteTo(&b)
	snap := regSnap{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if j := strings.Index(series, `le="`); j >= 0 {
				k := strings.IndexByte(series[j+4:], '"')
				name += "|" + series[j+4:j+4+k]
			}
		}
		snap[name] += v
	}
	return snap
}

// delta returns after-before for one series.
func (s regSnap) delta(before regSnap, name string) float64 {
	return s[name] - before[name]
}

// histDelta returns the per-bucket counts a registry histogram gained
// between two scrapes, with its finite bounds.
func (s regSnap) histDelta(before regSnap, name string, bounds []float64) []float64 {
	counts := make([]float64, len(bounds)+1)
	prev := 0.0
	for i, bd := range bounds {
		cum := s.delta(before, name+"_bucket|"+strconv.FormatFloat(bd, 'g', -1, 64))
		counts[i] = cum - prev
		prev = cum
	}
	counts[len(bounds)] = s.delta(before, name+"_bucket|+Inf") - prev
	return counts
}

// nsPerOp times op in batches sized to take about 2 ms each and returns
// the median of seven batches, in nanoseconds per unit of work. op(n) does
// at least n units and returns how many it did.
func nsPerOp(op func(n int) int) float64 {
	n := 1
	for {
		t := time.Now()
		op(n)
		if d := time.Since(t); d > 2*time.Millisecond || n >= 1<<30 {
			break
		}
		n *= 2
	}
	per := make([]float64, 7)
	for i := range per {
		t := time.Now()
		done := op(n)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(done)
	}
	return median(per)
}

// finite replaces NaN and ±Inf (an empty ratio) with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
