package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler tracks the highest resident set size seen while it runs.
// Sampling (rather than the kernel's lifetime high-water mark) confines
// the peak to the measured interval, so set-up allocations do not
// carry into it.
type rssSampler struct {
	stopc chan struct{}
	peak  chan int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), peak: make(chan int64, 1)}
	go func() {
		peak := readRSS()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, readRSS())
			case <-s.stopc:
				s.peak <- max(peak, readRSS())
				return
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() int64 {
	close(s.stopc)
	return <-s.peak
}

// readRSS returns the process's resident set size in bytes, from the
// second field of /proc/self/statm (pages); 0 where that is unavailable.
func readRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// processCPU returns the user plus system CPU time the process has
// used; 0 where that is unavailable.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
