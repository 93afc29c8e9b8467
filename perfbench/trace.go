package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bulkdel/internal/obs"
)

// tracer records the benchmark's own spans around its calls into the
// engine, in memory, for the traced run. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp uint64
}

// span is one recorded interval. Wall spans are timed on the real clock;
// sim spans are a statement's own phase spans on the simulated clock,
// placed inside their parent in proportion to their simulated share so
// the Chrome view nests them.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	Parent     int           // index of the parent span, -1 for none
	Op         uint64
	Tid        int
	Sim        time.Duration // simulated duration (sim spans only)
	Args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation id shared by the spans of one request.
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a wall span and returns its handle (-1 when untraced).
func (t *tracer) begin(name string, parent int, op uint64, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Tid: tid})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// nestPhases records a statement's core phase spans (simulated clock)
// under the wall span parent.
func (t *tracer) nestPhases(parent int, root *obs.Span) {
	if t == nil || parent < 0 || root == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	total := root.End - root.Start
	if total <= 0 {
		return
	}
	wall := p.End - p.Start
	for _, c := range root.Children {
		at := func(sim time.Duration) time.Duration {
			return p.Start + time.Duration(float64(wall)*float64(sim-root.Start)/float64(total))
		}
		t.spans = append(t.spans, span{
			Name: "core." + c.Name, Start: at(c.Start), End: at(c.End), Parent: parent,
			Op: p.Op, Tid: p.Tid, Sim: c.End - c.Start,
			Args: map[string]any{"detail": c.Detail, "sim_s": (c.End - c.Start).Seconds(),
				"reads": c.IO.Reads, "writes": c.IO.Writes},
		})
	}
}

// durations returns the wall durations of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates wall spans by name: total time and self time (span
// minus the part of it its wall children cover). Sim spans are excluded —
// their clock is not the wall clock.
func (t *tracer) selfTimes() []layerRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 && s.Sim == 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	for i, s := range t.spans {
		if s.Sim != 0 || s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.Total += d
		r.Self += d - covered(t.spans, kids[i], s.Start, s.End)
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi] the union of the child spans covers.
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		sum += v.b - v.a
		end = v.b
	}
	return sum
}

func printSelfTimes(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s %10s\n", "span (layer.call)", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f %10.2f\n", r.Name, r.Count, ms(r.Total), ms(r.Self), us(r.Self)/float64(r.Count))
	}
}

// chromeEvent is one Chrome trace_event "X" (complete) event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeCap bounds the events written per span name, so a traced run of
// a million inserts still yields a file a trace viewer can open; the
// self-time table and the per-layer metrics use every span.
const chromeCap = 5000

// writeChrome writes the spans as a Chrome trace_event JSON file (load it
// in chrome://tracing or Perfetto), the first chromeCap of each name. Each
// event carries its span id, parent id and op id in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, min(len(t.spans), 1<<16))
	perName := make(map[string]int)
	for i, s := range t.spans {
		if s.End < 0 || perName[s.Name] >= chromeCap {
			continue
		}
		perName[s.Name]++
		args := map[string]any{"id": i, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		cat := "wall"
		if s.Sim != 0 {
			cat = "sim"
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat + "," + layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Tid, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
