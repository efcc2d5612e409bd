package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSample is the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks.
type stealSample struct{ steal, total float64 }

// readSteal reads /proc/stat's aggregate cpu line; zero when unavailable.
func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return stealSample{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			s.total += x
		}
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// pctTo returns the steal share of the CPU time between s and later, -1
// when unknown.
func (s stealSample) pctTo(later stealSample) float64 {
	dt := later.total - s.total
	if s.total == 0 || dt <= 0 {
		return -1
	}
	return 100 * (later.steal - s.steal) / dt
}
