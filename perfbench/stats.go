package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration in nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := bytes.Fields(sc.Bytes()); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseFloat(string(f[1]), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's VmHWM count from the current RSS,
// so peakRSSMiB reports the peak since this call.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // without it the peak covers the whole process
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
