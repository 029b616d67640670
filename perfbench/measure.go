package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"blobseer/internal/transport"
	"blobseer/internal/wire"
)

// opStats accumulates one operation type's outcomes.
type opStats struct {
	lat       []time.Duration
	bytes     int64
	attempted int
	failed    int
	errs      map[string]int // failures by error class
}

// recorder collects per-operation latencies, payload bytes and
// failures from every worker of a run.
type recorder struct {
	mu  sync.Mutex
	ops map[string]*opStats
}

func newRecorder() *recorder { return &recorder{ops: make(map[string]*opStats)} }

func (r *recorder) get(op string) *opStats {
	s := r.ops[op]
	if s == nil {
		s = &opStats{errs: make(map[string]int)}
		r.ops[op] = s
	}
	return s
}

// done records one finished operation. A failed operation counts as
// attempted, carries no latency sample and moves no payload.
func (r *recorder) done(op string, d time.Duration, payload int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(op)
	s.attempted++
	if err != nil {
		s.failed++
		s.errs[errClass(err)]++
		return
	}
	s.lat = append(s.lat, d)
	s.bytes += int64(payload)
}

// op returns the stats of one operation type (empty when it never ran).
func (r *recorder) op(name string) *opStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name)
}

// totals sums attempts, failures, completed operations and payload
// bytes over every operation type.
func (r *recorder) totals() (attempted, failed, completed int, payload int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.ops {
		attempted += s.attempted
		failed += s.failed
		completed += len(s.lat)
		payload += s.bytes
	}
	return
}

// report prints every operation type's count, median and total time,
// and every failure with its error class, to standard error, so a
// nonzero failed count always comes with its cause.
func (r *recorder) report() {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ops))
	for n := range r.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.ops[n]
		var total time.Duration
		for _, d := range s.lat {
			total += d
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d done, p50 %.3f ms, %.2f s in total\n",
			n, len(s.lat), ms(quantile(s.lat, 0.5)), total.Seconds())
		for class, k := range s.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed %d of %d times: %s\n", n, k, s.attempted, class)
		}
	}
}

// errClass names an error's class: the protocol error code when the
// cluster answered with one, else the transport or context condition.
func errClass(err error) string {
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		return "wire." + strings.ReplaceAll(we.Code.String(), " ", "_") + ": " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline: " + err.Error()
	case errors.Is(err, transport.ErrClosed):
		return "transport_closed: " + err.Error()
	default:
		return "other: " + err.Error()
	}
}

// quantile returns the q-quantile of the samples by linear interpolation
// between closest ranks (0 for no samples).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupSeconds is the fastest of a run's set-ups, in seconds: the
// set-up's own cost with the least interference from the host.
func setupSeconds(setups []time.Duration) float64 { return slices.Min(setups).Seconds() }

// procSample is a snapshot of the process's CPU, allocation and GC
// counters; the difference of two samples covers a measured window.
type procSample struct {
	cpu        time.Duration
	allocBytes uint64
	numGC      uint32
	gcCPU      float64 // seconds of CPU spent by the garbage collector
	totalCPU   float64 // seconds of CPU as the Go runtime accounts it
}

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ss := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      ss[0].Value.Float64(),
		totalCPU:   ss[1].Value.Float64(),
	}
}

// procDelta is what happened between two samples.
type procDelta struct {
	cpu        time.Duration
	allocBytes uint64
	numGC      uint32
	gcCPUFrac  float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		numGC:      b.numGC - a.numGC,
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// add accumulates another window's counters.
func (d *procDelta) add(e procDelta) {
	if tot := d.cpu + e.cpu; tot > 0 {
		d.gcCPUFrac = (d.gcCPUFrac*float64(d.cpu) + e.gcCPUFrac*float64(e.cpu)) / float64(tot)
	}
	d.cpu += e.cpu
	d.allocBytes += e.allocBytes
	d.numGC += e.numGC
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
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
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}
