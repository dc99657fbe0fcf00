package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0, 1]). xs is not modified. An empty xs gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// finite reports whether every value is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timedSetup runs build at least minReps times, and more while the total
// stays under minTotal, and returns the last result with the median wall
// time of one build. Every build must produce the same fingerprint: set-up
// is a pure function of the seed.
func timedSetup[T any](minReps int, minTotal time.Duration, build func() (T, string, error)) (T, float64, error) {
	var (
		last     T
		lastFP   string
		walls    []float64
		began    = time.Now()
		zero     T
		maxReps  = 50
		mismatch bool
	)
	for rep := 0; rep < maxReps && (rep < minReps || time.Since(began) < minTotal); rep++ {
		t0 := time.Now()
		v, fp, err := build()
		if err != nil {
			return zero, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if rep > 0 && fp != lastFP {
			mismatch = true
		}
		last, lastFP = v, fp
	}
	if mismatch {
		return zero, 0, errNondeterministicSetup
	}
	return last, median(walls), nil
}
