// Command perfbench is the end-to-end benchmark of the bulkdel engine.
//
// It drives the engine from outside, through its public entry points, on
// one of three seeded workloads, and reports every end-to-end metric by
// name and unit on two clocks: the real (wall) clock and the simulated
// disk clock the paper measures. Every result is checked against a shadow
// model; any mismatch fails the run.
//
//	go run . --workload purge-heap --seed 1 --seconds 20 --trace 0
//	go run . --workload all --seed 1 --seconds 5
//	go run . --smoke
//
// With --trace 1 the run records the benchmark's own spans around each
// engine call, prints the per-layer metrics instead of the end-to-end ones,
// and writes the spans as a Chrome trace_event file. The last line of
// standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bulkdel"
	"bulkdel/internal/sim"
)

// workloads in the order `--workload all` runs them.
var workloads = []string{"purge-heap", "sql-window", "lsm-window"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool // smoke sizes
	traceOut string
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, reported on every workload.
// fail_frac is printed in the table; the JSON result carries it as
// failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delete_p50_ms", "ms"}, {"delete_tail_ms", "ms"}, {"delete_sim_s", "s"},
	{"insert_p50_us", "us"}, {"insert_tail_us", "us"},
	{"read_p50_us", "us"}, {"read_tail_us", "us"},
	{"ops_per_s", "1/s"}, {"fail_frac", "ratio"}, {"space_amp", "ratio"},
	{"alloc_bytes_per_op", "B"}, {"mem_peak_mb", "MB"},
}

// corePhases are the bulk-delete executor's phase spans (BulkResult.Trace).
var corePhases = []string{"materialize-victims", "collect-rids", "access-pass", "extract", "heap-pass", "index-pass", "wal-commit"}

// sqlKinds are the statement kinds of the sql-window stream.
var sqlKinds = []string{"select", "insert", "delete"}

// perLayer lists the per-layer metrics of the traced run, reported on
// every workload (0 where the layer does no work).
var perLayer = func() []metricDef {
	m := []metricDef{
		{"bulkdel.bulk_delete_ms", "ms"}, {"bulkdel.flush_ms", "ms"},
		{"bulkdel.insert_us", "us"}, {"bulkdel.lookup_us", "us"}, {"bulkdel.delete_range_us", "us"},
	}
	for _, p := range corePhases {
		m = append(m, metricDef{"core." + p + ".sim_s", "s"}, metricDef{"core." + p + ".reads", "count"}, metricDef{"core." + p + ".writes", "count"})
	}
	m = append(m,
		metricDef{"buffer.hits", "count"}, metricDef{"buffer.misses", "count"}, metricDef{"buffer.evictions", "count"},
		metricDef{"buffer.dirty_evicts", "count"}, metricDef{"buffer.hit_ratio", "ratio"},
		metricDef{"sim.reads", "count"}, metricDef{"sim.writes", "count"}, metricDef{"sim.random_ops", "count"},
		metricDef{"sim.seq_ops", "count"}, metricDef{"sim.chained_runs", "count"}, metricDef{"sim.allocated_pages", "count"},
		metricDef{"sim.probe_mismatches", "count"}, metricDef{"sim.later_round_spread_pct", "%"},
		metricDef{"wal.appends", "count/op"}, metricDef{"wal.append_bytes", "B/op"}, metricDef{"wal.flushes", "count/op"},
		metricDef{"wal.flush_pages", "count/op"}, metricDef{"wal.append_wait_us", "us/op"}, metricDef{"wal.queue_peak", "B"},
		metricDef{"cc.lock_waits", "count"}, metricDef{"cc.lock_wait_us", "us"}, metricDef{"cc.retries", "count"},
		metricDef{"mvcc.snapshot_reads", "count"}, metricDef{"mvcc.snapshot_read_waits", "count"},
		metricDef{"mvcc.fallback_scans", "count"},
		metricDef{"mvcc.retained_bytes_peak", "B"},
	)
	for _, k := range sqlKinds {
		m = append(m,
			metricDef{"wire.rtt_us." + k, "us"}, metricDef{"wire.self_us." + k, "us"},
			metricDef{"session.exec_us." + k, "us"}, metricDef{"session.self_us." + k, "us"},
			metricDef{"sql.parse_us." + k, "us"})
	}
	m = append(m,
		metricDef{"lsm.compact_ms", "ms"}, metricDef{"lsm.compact_sim_s", "s"}, metricDef{"lsm.flush_ticks", "count"},
		metricDef{"lsm.files_created", "count"}, metricDef{"lsm.sstables", "count"}, metricDef{"lsm.tombs_live", "count"},
		metricDef{"lsm.oldest_tomb_age_ticks", "ticks"}, metricDef{"lsm.write_amp", "ratio"},
		metricDef{"go.gc_cycles", "count"}, metricDef{"go.gc_pause_us", "us"},
		metricDef{"bench.gen_late_ms", "ms"},
		metricDef{"trace.overhead.delete_p50_pct", "%"}, metricDef{"trace.overhead.insert_p50_pct", "%"},
		metricDef{"trace.overhead.read_p50_pct", "%"},
	)
	return m
}()

// series is one operation kind's latencies, split into untraced [0] and
// traced [1] units. Untraced runs use [0] only; a traced run alternates
// units so [1] vs [0] is the tracing overhead.
type series [2]samples

// run is the state of one workload execution.
type run struct {
	cfg config
	tally
	tr *tracer

	setups         []time.Duration
	del, ins, read series
	late           samples // open-loop generator lateness
	delSimMu       sync.Mutex
	delSim         []time.Duration
	completed      atomic.Int64
	opsDone        int64 // operations completed in the timed phase
	timed          time.Duration
	db0            dbCounters
	rt             *runtimeStats

	// State metrics, taken when the first stateOps rounds are done.
	stateMarked bool
	spaceAmp    float64
	memPeak     uint64

	layerMu sync.Mutex
	layer   map[string]float64
	perOp   map[string][]float64 // per-statement layer samples, reported as medians
	notes   []string
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, layer: make(map[string]float64), perOp: make(map[string][]float64)}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// unitTraced says whether unit i of the timed phase records spans.
func (r *run) unitTraced(i int) bool { return r.tr != nil && i%2 == 0 }

// tracerFor returns the tracer when unit i is traced, else nil.
func (r *run) tracerFor(i int) *tracer {
	if r.unitTraced(i) {
		return r.tr
	}
	return nil
}

func idx(traced bool) int {
	if traced {
		return 1
	}
	return 0
}

func (r *run) addDelSim(d time.Duration) {
	r.delSimMu.Lock()
	r.delSim = append(r.delSim, d)
	r.delSimMu.Unlock()
}

func (r *run) setLayer(name string, v float64) {
	r.layerMu.Lock()
	r.layer[name] = v
	r.layerMu.Unlock()
}

// sample records one statement's value of a per-layer metric.
func (r *run) sample(name string, v float64) {
	r.layerMu.Lock()
	r.perOp[name] = append(r.perOp[name], v)
	r.layerMu.Unlock()
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// done counts one attempted operation, and as completed when ok; callers
// report a failure with fail.
func (r *run) done(ok bool) {
	r.attempted.Add(1)
	if ok {
		r.completed.Add(1)
	}
}

// beginTimed starts the timed phase: operation counts restart and the
// runtime and DB-wide counters are snapshotted.
func (r *run) beginTimed(db *bulkdel.DB) time.Time {
	r.completed.Store(0)
	r.db0 = snapDB(db)
	r.rt = startRuntimeStats(db.Observer().Registry().Gauge("mvcc_retained_bytes").Value)
	return time.Now()
}

// endTimed closes the timed phase begun at start.
func (r *run) endTimed(db *bulkdel.DB, start time.Time) {
	r.timed = time.Since(start)
	r.rt.finish()
	r.opsDone = r.completed.Load()
	recordDBLayers(r, r.db0, snapDB(db), r.opsDone)
	r.setLayer("mvcc.retained_bytes_peak", float64(r.rt.GaugePeak))
	r.done(r.stateMarked)
	if !r.stateMarked {
		r.fail("timed phase ended before its first %d %s", r.stateN(), r.stateUnit())
	}
}

// stateOps fixes, per workload, how many rounds of the timed phase
// (sql-window: DELETE statements) the state metrics delete_sim_s,
// space_amp and mem_peak_mb are taken over. Engine state grows with every
// delete (temp files a heap bulk delete leaves behind, the LSM's WAL), so
// over the whole timed phase these would scale with throughput × run
// length; over a fixed count they measure what the statements cost. Each
// count is reached in about a third of the default run length, and the
// timed phase runs until both its deadline has passed and the count is
// reached.
var stateOps = map[string]int{"purge-heap": 40, "sql-window": 200, "lsm-window": 400}

// stateN is the workload's stateOps.
func (r *run) stateN() int { return stateOps[r.cfg.workload] }

func (r *run) stateUnit() string {
	if r.cfg.workload == "sql-window" {
		return "DELETE statements"
	}
	return "rounds"
}

// markState records the state metrics once the first stateN rounds are
// done: the space amplification of the table's files over live rows ×
// record size, and the Go heap peak so far.
func (r *run) markState(db *bulkdel.DB, system map[sim.FileID]bool, live int64, recSize int) {
	r.spaceAmp = float64(tableBytes(db, system)) / float64(live*int64(recSize))
	r.memPeak = r.rt.heapPeak()
	r.stateMarked = true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	sort.Float64s(c)
	return c[len(c)/2]
}

// systemFiles returns the files a freshly opened DB already holds (the
// catalog and the WAL); space accounting counts every other file.
func systemFiles(db *bulkdel.DB) map[sim.FileID]bool {
	out := make(map[sim.FileID]bool)
	for _, d := range db.Layout() {
		for _, f := range d.ByFile {
			out[f.File] = true
		}
	}
	if id, ok := db.WALFile(); ok {
		out[id] = true
	}
	return out
}

// tableBytes sums DB.Layout bytes over the files created for the table.
func tableBytes(db *bulkdel.DB, system map[sim.FileID]bool) int64 {
	var n int64
	for _, d := range db.Layout() {
		for _, f := range d.ByFile {
			if !system[f.File] {
				n += f.Bytes
			}
		}
	}
	return n
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// tail returns the workload's fixed tail of s (see tails) with a label
// naming the percentile and the samples beyond it.
func (r *run) tail(kind string, s *samples) (time.Duration, string) {
	t := tails[r.cfg.workload][kind]
	n, k := s.n(), t.slices
	beyond := int(float64(n/k) * (100 - t.p) / 100)
	label := fmt.Sprintf("p%g of %d, %d beyond", t.p, n, beyond)
	if k > 1 {
		label = fmt.Sprintf("p%g, median of %d slices of %d, %d beyond each", t.p, k, n/k, beyond)
	}
	if beyond < 10 {
		label += " (<10: run longer)"
	}
	return s.sliced(t.p, k), label
}

// endToEndValues computes every end-to-end metric from the untraced units,
// with a sample-count note per metric.
func (r *run) endToEndValues() (map[string]float64, map[string]string) {
	v := make(map[string]float64)
	note := make(map[string]string)
	v["setup_s"] = medianDur(r.setups).Seconds()
	note["setup_s"] = fmt.Sprintf("median of %d set-ups", len(r.setups))
	for _, k := range []struct {
		kind string
		s    *samples
		conv func(time.Duration) float64
		pre  string
	}{
		{"delete", &r.del[0], ms, "delete_%s_ms"},
		{"insert", &r.ins[0], us, "insert_%s_us"},
		{"read", &r.read[0], us, "read_%s_us"},
	} {
		p50 := fmt.Sprintf(k.pre, "p50")
		v[p50] = k.conv(k.s.quantile(50))
		note[p50] = fmt.Sprintf("n=%d", k.s.n())
		tv, tl := r.tail(k.kind, k.s)
		tn := fmt.Sprintf(k.pre, "tail")
		v[tn] = k.conv(tv)
		note[tn] = tl
	}
	n := r.stateN()
	r.delSimMu.Lock()
	first := r.delSim[:min(n, len(r.delSim))]
	var simSum time.Duration
	for _, d := range first {
		simSum += d
	}
	if len(first) > 0 {
		v["delete_sim_s"] = simSum.Seconds() / float64(len(first))
	}
	note["delete_sim_s"] = fmt.Sprintf("mean of the first %d of %d statements", len(first), len(r.delSim))
	r.delSimMu.Unlock()
	done := r.opsDone
	v["ops_per_s"] = float64(done) / r.timed.Seconds()
	note["ops_per_s"] = fmt.Sprintf("%d ops in %.3f s", done, r.timed.Seconds())
	if a := r.attempted.Load(); a > 0 {
		v["fail_frac"] = float64(r.failed.Load()) / float64(a)
	}
	note["fail_frac"] = fmt.Sprintf("%d of %d", r.failed.Load(), r.attempted.Load())
	unit := r.stateUnit()
	v["space_amp"] = r.spaceAmp
	note["space_amp"] = fmt.Sprintf("after the first %d %s", n, unit)
	if done > 0 {
		v["alloc_bytes_per_op"] = float64(r.rt.AllocBytes) / float64(done)
	}
	note["alloc_bytes_per_op"] = fmt.Sprintf("over %d ops", done)
	v["mem_peak_mb"] = float64(r.memPeak) / 1e6
	note["mem_peak_mb"] = fmt.Sprintf("peak over the first %d %s, polled every 2 ms", n, unit)
	return v, note
}

// finishLayers fills the per-layer metrics every workload shares: Go
// runtime counters, open-loop lateness and the tracing overhead.
func (r *run) finishLayers() {
	r.layerMu.Lock()
	for name, vs := range r.perOp {
		r.layer[name] = median(vs)
	}
	r.layerMu.Unlock()
	for _, c := range []struct {
		span, metric string
		conv         func(time.Duration) float64
	}{
		{"bulkdel.bulk_delete", "bulkdel.bulk_delete_ms", ms}, {"bulkdel.flush", "bulkdel.flush_ms", ms},
		{"bulkdel.insert", "bulkdel.insert_us", us}, {"bulkdel.lookup", "bulkdel.lookup_us", us},
		{"bulkdel.delete_range", "bulkdel.delete_range_us", us}, {"lsm.compact", "lsm.compact_ms", ms},
	} {
		if d := r.tr.durations(c.span); len(d) > 0 {
			r.setLayer(c.metric, c.conv(medianDur(d)))
		}
	}
	r.setLayer("go.gc_cycles", float64(r.rt.GCCycles))
	r.setLayer("go.gc_pause_us", us(r.rt.GCPause))
	if r.late.n() > 0 {
		r.setLayer("bench.gen_late_ms", ms(r.late.quantile(99)))
	}
	for _, k := range []struct {
		name string
		s    *series
	}{{"delete", &r.del}, {"insert", &r.ins}, {"read", &r.read}} {
		off, on := k.s[0].quantile(50), k.s[1].quantile(50)
		if off > 0 && on > 0 {
			r.setLayer("trace.overhead."+k.name+"_p50_pct", 100*(float64(on)/float64(off)-1))
		}
	}
}

// report prints the human-readable tables and returns the JSON result.
func (r *run) report() resultOut {
	w := r.cfg.workload
	out := resultOut{Correct: r.failed.Load() == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: make(map[string]metricOut)}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed++
		out.Correct = false
	}
	fmt.Printf("== %s seed=%d seconds=%g trace=%v\n", w, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, n := range r.notes {
		fmt.Println("  note:", n)
	}
	if !r.cfg.trace {
		v, note := r.endToEndValues()
		for _, k := range []struct {
			name string
			s    *samples
		}{{"delete", &r.del[0]}, {"insert", &r.ins[0]}, {"read", &r.read[0]}} {
			fmt.Printf("  %-6s us, median of 10 slices:", k.name)
			for _, p := range []float64{50, 90, 95, 98, 99, 99.5, 99.8, 99.9} {
				fmt.Printf(" p%g %.1f", p, us(k.s.sliced(p, tailSlices)))
			}
			fmt.Printf("  (n=%d, max %.1f)\n", k.s.n(), us(k.s.quantile(100)))
		}
		fmt.Printf("%-22s %16s %-6s  %s\n", "end-to-end metric", "value", "unit", "samples")
		for _, m := range endToEnd {
			fmt.Printf("%-22s %16.6g %-6s  %s\n", m.name, v[m.name], m.unit, note[m.name])
			if m.name != "fail_frac" {
				out.Metrics[m.name] = metricOut{v[m.name], m.unit}
			}
		}
		return out
	}
	r.finishLayers()
	printSelfTimes(os.Stdout, r.tr.selfTimes())
	fmt.Printf("%-34s %16s %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		r.layerMu.Lock()
		val := r.layer[m.name]
		r.layerMu.Unlock()
		fmt.Printf("%-34s %16.6g %s\n", m.name, val, m.unit)
		out.Metrics[m.name] = metricOut{val, m.unit}
	}
	path := r.cfg.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.trace.json", w, r.cfg.seed))
	}
	if err := r.tr.writeChrome(path); err != nil {
		fmt.Println("trace file:", err)
	} else {
		fmt.Println("trace file:", path)
	}
	return out
}

// execute runs one workload and returns its result.
func execute(cfg config) resultOut {
	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case "purge-heap":
		err = purgeHeap(r)
	case "sql-window":
		err = sqlWindow(r)
	case "lsm-window":
		err = lsmWindow(r)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		// The workload stopped before its timed phase ended: there is
		// nothing to report but the failure.
		if r.rt != nil && r.timed == 0 {
			r.rt.finish()
		}
		r.attempted.Add(1)
		r.fail("%s: %v", cfg.workload, err)
		return resultOut{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]metricOut{}}
	}
	return r.report()
}

// smoke runs every workload at tiny sizes, untraced and traced, and
// checks that each prints every metric and passes its oracle. Trace files
// go to traceDir.
func smoke(seed int64, traceDir string) error {
	var bad []string
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			res := execute(config{workload: w, seed: seed, seconds: 1, trace: tr, small: true,
				traceOut: filepath.Join(traceDir, "smoke-"+w+".trace.json")})
			want := endToEnd
			if tr {
				want = perLayer
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s trace=%v: oracle failed (%d of %d)", w, tr, res.Failed, res.Attempted))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok && m.name != "fail_frac" {
					bad = append(bad, fmt.Sprintf("%s trace=%v: metric %s missing", w, tr, m.name))
				}
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("smoke: %s", strings.Join(bad, "; "))
	}
	return nil
}

func main() {
	var cfg config
	var traceFlag int
	var doSmoke bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.BoolVar(&doSmoke, "smoke", false, "run every workload at tiny sizes as a self-test")
	flag.Parse()
	cfg.trace = traceFlag == 1

	// Hard stop: a hung operation must not hang the benchmark. At the
	// default run length one workload stops well inside 180 s. No result
	// is printed.
	runs := 1.0
	if cfg.workload == "all" {
		runs = float64(len(workloads))
	}
	time.AfterFunc(time.Duration(runs*cfg.seconds*float64(time.Second))+140*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})

	if doSmoke {
		if err := smoke(cfg.seed, filepath.Join(".bench_build", "traces")); err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}
	var res resultOut
	if cfg.workload == "all" {
		res = resultOut{Correct: true, Metrics: make(map[string]metricOut)}
		for _, w := range workloads {
			c := cfg
			c.workload = w
			c.traceOut = ""
			one := execute(c)
			res.Correct = res.Correct && one.Correct
			res.Attempted += one.Attempted
			res.Failed += one.Failed
			for k, m := range one.Metrics {
				res.Metrics[w+"."+k] = m
			}
		}
	} else {
		res = execute(cfg)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
