package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantileUS returns the q-quantile (nearest rank) of ns samples in µs.
// It sorts samples in place; an empty set reads 0.
func quantileUS(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	i := int(q*float64(len(samples))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return float64(samples[i]) / 1e3
}

// median returns the median of xs (mean of the middle two for even
// counts); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share returns num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat returns the machine's steal and total CPU ticks from
// /proc/stat; zeros where it cannot be read.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// calm marks the calmest quarter of the measuring intervals: those whose
// steal is at most the lower quartile's. The hypervisor steals CPU in
// bursts on a shared host; on the 2-vCPU reference host a window with one
// 10 ms tick stolen served 7% fewer requests than one with none, and a few
// percent of steal over a run cost churn-net a fifth of its throughput.
func calm(steal []uint64) []bool {
	s := append([]uint64(nil), steal...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	keep := make([]bool, len(steal))
	if len(s) == 0 {
		return keep
	}
	limit := s[(len(s)-1)/4]
	for i, v := range steal {
		keep[i] = v <= limit
	}
	return keep
}

// liveHeapMB is HeapAlloc in MiB after two forced collections: the first
// frees what was garbage at the call, the second what its finalizers and
// sweeps released.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// settleTimeout bounds every shutdown wait.
const settleTimeout = 10 * time.Second

// waitUntil polls cond until it holds or settleTimeout passes. Only
// shutdown uses it: set-up and measurement wait on completions.
func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(settleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not happen within %v", what, settleTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// goroutinesSettle waits until the goroutine count is back to at most
// base: every goroutine a round started has exited.
func goroutinesSettle(base int) error {
	err := waitUntil("goroutine count return", func() bool { return runtime.NumGoroutine() <= base })
	if err != nil {
		return fmt.Errorf("%w: %d goroutines, %d at start", err, runtime.NumGoroutine(), base)
	}
	return nil
}

// waitDone waits for a completion callback's signal, failing after
// settleTimeout.
func waitDone(what string, ch <-chan struct{}) error {
	t := time.NewTimer(settleTimeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return fmt.Errorf("%s did not complete within %v", what, settleTimeout)
	}
}
