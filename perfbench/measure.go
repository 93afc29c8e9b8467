package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// samples is one latency series of the timed phase.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100), or 0
// for an empty series.
func (s *samples) quantile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.d, p)
}

// sliced returns the median over k consecutive equal slices of the series
// of each slice's p-th percentile (k = 1: the plain percentile).
func (s *samples) sliced(p float64, k int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.d)
	k = min(k, max(n, 1))
	w := make([]time.Duration, k)
	for i := range w {
		w[i] = quantile(s.d[i*n/k:(i+1)*n/k], p)
	}
	return medianDur(w)
}

func quantile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), d...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	return c[rank-1]
}

// tailSpec fixes one series' tail percentile. With slices > 1 the tail
// is the median of the percentile over that many consecutive equal slices
// of the series, so one burst of interference from outside the process
// (CPU steal on a shared VM) moves one slice, not the metric.
type tailSpec struct {
	p      float64
	slices int
}

// tailSlices is the slice count of the sliced tails.
const tailSlices = 10

// tails fixes, per workload and operation kind, the reported tail. Each
// keeps at least ten samples beyond it (in every slice) at the default run
// length, BENCHMARK.json run_seconds. The strict "highest percentile with
// ten samples beyond it" (p99.99 and up on the long series) moved by
// 40-120 % between identical runs on a shared 2-core VM, with CPU steal and
// GC assists; these are the highest percentiles whose spread over five
// seeds stayed near 10 % or below. lsm-window inserts take p99.8 because it
// lies inside the memtable-flush stall population (1 insert in 256): p99.9
// straddles the rarer flush+compaction stalls and jumps between runs.
var tails = map[string]map[string]tailSpec{
	"purge-heap": {"delete": {85, 1}, "insert": {98, tailSlices}, "read": {95, tailSlices}},
	"sql-window": {"delete": {90, 1}, "insert": {99, tailSlices}, "read": {95, tailSlices}},
	"lsm-window": {"delete": {90, 1}, "insert": {99.8, tailSlices}, "read": {99, tailSlices}},
}

// tally counts operations across the client goroutines of a workload.
type tally struct {
	attempted, failed atomic.Int64
}

// fail records a failed or wrong operation and prints why.
func (t *tally) fail(format string, args ...any) {
	if t.failed.Add(1) <= 20 {
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
}

// runtimeStats samples the Go runtime around the timed phase: bytes
// allocated, GC cycles and pauses, and the peak heap in use.
type runtimeStats struct {
	allocs0, cycles0 uint64
	pause0           uint64
	stop             chan struct{}
	done             sync.WaitGroup
	mu               sync.Mutex // guards the peaks while polling runs

	AllocBytes uint64
	GCCycles   uint64
	GCPause    time.Duration
	PeakHeap   uint64
	GaugePeak  int64

	gauge func() int64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readRT() (allocs, cycles, heap uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func pauseTotal() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// startRuntimeStats begins sampling; the heap and gauge are polled every
// few milliseconds for their peaks until finish.
func startRuntimeStats(gauge func() int64) *runtimeStats {
	r := &runtimeStats{stop: make(chan struct{}), gauge: gauge}
	r.pause0 = pauseTotal()
	r.allocs0, r.cycles0, r.PeakHeap = readRT()
	r.GaugePeak = gauge()
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.poll()
			}
		}
	}()
	return r
}

func (r *runtimeStats) finish() {
	close(r.stop)
	r.done.Wait()
	r.poll()
	allocs, cycles, _ := readRT()
	r.AllocBytes = allocs - r.allocs0
	r.GCCycles = cycles - r.cycles0
	r.GCPause = time.Duration(pauseTotal() - r.pause0)
}

// poll folds the current heap and gauge values into their peaks.
func (r *runtimeStats) poll() {
	_, _, h := readRT()
	g := r.gauge()
	r.mu.Lock()
	r.PeakHeap = max(r.PeakHeap, h)
	r.GaugePeak = max(r.GaugePeak, g)
	r.mu.Unlock()
}

// heapPeak polls once more and returns the heap peak so far.
func (r *runtimeStats) heapPeak() uint64 {
	r.poll()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.PeakHeap
}

// median of durations.
func medianDur(d []time.Duration) time.Duration { return quantile(d, 50) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
