package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the raw samples by
// linear interpolation between closest ranks (the R-7 / NumPy default
// rule). Samples are never bucketed, so the result is exact for the
// data; an empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open [Start, End) span of monotonic nanoseconds.
type interval struct{ Start, End int64 }

// coverage returns how many nanoseconds of the windows are covered by
// the union of the intervals.
func coverage(windows, ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var merged []interval
	for _, iv := range s {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			if iv.End > merged[n-1].End {
				merged[n-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	var covered int64
	for _, w := range windows {
		for _, m := range merged {
			lo, hi := max(w.Start, m.Start), min(w.End, m.End)
			if hi > lo {
				covered += hi - lo
			}
		}
	}
	return covered
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 where procfs is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// splitmix64 is the seed mixer every derived input goes through, so a
// single --seed fixes every generator seed, spec and sample.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a small deterministic generator over splitmix64.
type rng struct{ state uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{state: splitmix64(seed ^ splitmix64(stream+1))}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns k distinct indices from [0, n) in ascending order.
func (r *rng) pick(n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}
