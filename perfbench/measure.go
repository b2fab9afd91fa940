package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRuns is how many times each workload sets itself up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 3

// memSampleEvery is the heap sampling period during the timed window.
const memSampleEvery = 2 * time.Millisecond

// median returns the median of xs (0 for none).
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

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies summarizes op latencies the way every workload reports them.
type latencies []time.Duration

func (l latencies) p50() time.Duration {
	s := l.sorted()
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// tail returns the highest percentile that still has at least ten samples
// beyond it: the eleventh-largest latency, its percentile, and the number
// of samples above it.
func (l latencies) tail() (time.Duration, float64, int) {
	s := l.sorted()
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return s[n-1], 100, 0
	}
	return s[n-11], 100 * float64(n-10) / float64(n), 10
}

func (l latencies) sorted() []time.Duration {
	s := append([]time.Duration(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// heapInUse reads the bytes of heap objects currently allocated, live or
// not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples heap in use during a timed window. The baseline is the
// live heap after set-up, so resident references are not counted as the
// program's memory.
type heapPeak struct {
	base    uint64
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

// memSlices is how many equal time slices of the window peak_mem_mb takes
// the median peak over.
const memSlices = 8

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}),
		samples: make([]heapSample, 0, 1<<16)}
	runtime.GC()
	h.base = heapInUse()
	go func() {
		defer close(h.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			if len(h.samples) < cap(h.samples) {
				h.samples = append(h.samples, heapSample{time.Now(), heapInUse()})
			}
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// endMB stops sampling and returns, in MB above the baseline, the median
// over memSlices equal slices of the window of each slice's peak: the
// window's single highest sample depends on where a collection happened to
// fall, the typical slice peak much less.
func (h *heapPeak) endMB() float64 {
	close(h.stop)
	<-h.done
	if len(h.samples) == 0 {
		return 0
	}
	start, end := h.samples[0].at, h.samples[len(h.samples)-1].at
	width := end.Sub(start)/memSlices + 1
	peaks := make([]float64, memSlices)
	for _, s := range h.samples {
		i := int(s.at.Sub(start) / width)
		if v := float64(s.bytes) - float64(h.base); v > peaks[i] {
			peaks[i] = v
		}
	}
	return median(peaks) / 1e6
}

// offHeap keeps fixture bytes in anonymous mappings outside the Go heap:
// resident inputs then neither count as heap in use nor raise the
// collector's heap goal, so peak_mem_mb describes the program alone.
type offHeap struct{ maps [][]byte }

func (o *offHeap) copy(p []byte) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, len(p), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d fixture bytes: %w", len(p), err)
	}
	copy(m, p)
	o.maps = append(o.maps, m)
	return m, nil
}

func (o *offHeap) release() {
	for _, m := range o.maps {
		_ = syscall.Munmap(m) // only fails for a mapping this type never made
	}
	o.maps = nil
}

// timedSetups runs setup setupRuns times, releasing every set-up but the
// last, and returns the last one with the median set-up time in seconds.
func timedSetups[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = s
	}
	return last, median(secs), nil
}

// tally counts attempted and failed ops; failures are printed as they
// happen so a mismatch is never silent. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.mu.Unlock()
	fmt.Printf("FAIL "+format+"\n", args...)
}

// endToEnd is what every untraced workload measures.
type endToEnd struct {
	setupS      float64
	opsPerS     float64
	recordsPerS float64
	lat         latencies // per-op latency the p50 and tail come from
	lag         latencies // last record delivered → result
	peakMB      float64
	acc         accuracy
	tally       *tally
	lines       []string
}

// result prints the human-readable summary and returns the JSON result.
func (e *endToEnd) result(workload string) *result {
	tail, pct, beyond := e.lat.tail()
	fmt.Printf("%s latency_tail is p%.1f: %d samples beyond it, n=%d\n", workload, pct, beyond, len(e.lat))
	fmt.Printf("%s accuracy: %s\n", workload, e.acc.summary())
	for _, l := range e.lines {
		fmt.Println(l)
	}
	success := 0.0
	if e.tally.attempted > 0 {
		success = float64(e.tally.attempted-e.tally.failed) / float64(e.tally.attempted)
	}
	m := map[string]metric{
		"setup_s":             {e.setupS, "s"},
		"ops_per_s":           {e.opsPerS, "1/s"},
		"latency_p50_ms":      {ms(e.lat.p50()), "ms"},
		"latency_tail_ms":     {ms(tail), "ms"},
		"success_rate":        {success, "ratio"},
		"peak_mem_mb":         {e.peakMB, "MB"},
		"phase_error_pct":     {e.acc.errorPct(), "%"},
		"breakpoint_f1":       {e.acc.f1(), "ratio"},
		"reconstructed_share": {e.acc.reconstructed(), "ratio"},
		"records_per_s":       {e.recordsPerS, "1/s"},
		"result_lag_ms":       {ms(e.lag.p50()), "ms"},
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	return &result{Correct: true, Attempted: e.tally.attempted, Failed: e.tally.failed, Metrics: m}
}

// ladderRun collects a closed-loop ladder run's op times.
type ladderRun struct {
	fx      []*fixture
	lat     []latencies   // per fixture: op latency
	records int           // records of every op
	ingest  time.Duration // summed time until each op's records were in the pipeline
}

func newLadderRun(fx []*fixture) *ladderRun {
	return &ladderRun{fx: fx, lat: make([]latencies, len(fx))}
}

func (r *ladderRun) add(i int, lat, ingest time.Duration) {
	r.lat[i] = append(r.lat[i], lat)
	r.records += r.fx[i].records
	r.ingest += ingest
}

// rates returns the completed ops per second of the timed window, which
// took elapsed, and the records ingested per second of ingest time.
func (r *ladderRun) rates(elapsed time.Duration) (opsPerS, recordsPerS float64) {
	ops := 0
	for _, l := range r.lat {
		ops += len(l)
	}
	return float64(ops) / elapsed.Seconds(), float64(r.records) / r.ingest.Seconds()
}

// summary lists each fixture's median op latency.
func (r *ladderRun) summary(workload string) string {
	line := fmt.Sprintf("%s %d ops; median ms per trace:", workload, len(r.fx)*len(r.lat[0]))
	for i, f := range r.fx {
		line += fmt.Sprintf(" %s=%.1f", f.name[:strings.LastIndexByte(f.name, '/')], ms(r.lat[i].p50()))
	}
	return line
}
