package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bulkdel"
	"bulkdel/internal/session"
	"bulkdel/internal/sim"
	"bulkdel/internal/sql"
	"bulkdel/internal/wire"
)

// sql-window: a 4-field, 128 B heap table with 3 indexes holding a sliding
// window of keys, in cache behind a 64 MB pool, WAL on, served by one
// in-process wire server over two TCP connections. Connection A reads
// open-loop at a fixed rate; connection B is a closed-loop writer that
// inserts 10-row batches at the head of the window and, each time the
// window has grown by 2 %, range-deletes the oldest 2 %.

const (
	sqlBatch    = 10  // rows per INSERT statement
	sqlReadRate = 200 // mean reads per second of connection A
)

type sqlSizes struct{ rows, pool, setups int }

func sqlSizing(small bool) sqlSizes {
	if small {
		return sqlSizes{rows: 2000, pool: 4 << 20, setups: 2}
	}
	return sqlSizes{rows: 50000, pool: 64 << 20, setups: 7}
}

// mix is splitmix64: the row content of key k is a pure function of the
// seed, so any reader can verify a row without shared state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func windowRow(seed, k int64) []int64 {
	row := []int64{k, 0, 0, 0}
	for f := 1; f < 4; f++ {
		row[f] = int64(mix(uint64(seed)*4+uint64(f)^uint64(k)<<8) >> 33)
	}
	return row
}

// stmt is one statement of the seeded stream, in SQL text and in the
// structured form the direct Go-API path executes.
type stmt struct {
	kind   string // select, insert, delete
	text   string
	key    int64     // select
	rows   [][]int64 // insert
	lo, hi int64     // delete
}

// Execution paths of the traced run's rotation. The untraced run uses
// pathWireRef only.
const (
	pathWireRef = iota // wire, untraced: the tracing-overhead reference
	pathWire           // wire.Client.Exec
	pathSession        // session.Session.Exec in process
	pathDirect         // the bulkdel calls the session would make
	numPaths
)

type sqlw struct {
	r      *run
	sz     sqlSizes
	db     *bulkdel.DB
	tbl    *bulkdel.Table
	system map[sim.FileID]bool
	srv    *wire.Server
	served chan struct{}
	front  *session.Frontend
	conns  [2]*wire.Client

	// Window bounds shared by the two clients. Keys in [safeLo, hi) are
	// live and not about to be deleted; pick (read-locked by the reader
	// for the pick and the read) orders a raise of safeLo after any read
	// that picked below it.
	pick   sync.RWMutex
	safeLo atomic.Int64
	hi     atomic.Int64

	writerDone atomic.Bool // the writer has ended the timed phase
}

func (w *sqlw) build() error {
	db, err := bulkdel.Open(bulkdel.Options{BufferBytes: w.sz.pool})
	if err != nil {
		return err
	}
	w.db, w.system = db, systemFiles(db)
	if w.tbl, err = db.CreateTable("r", 4, 128); err != nil {
		return err
	}
	for k := 0; k < w.sz.rows; k++ {
		if _, err := w.tbl.Insert(windowRow(w.r.cfg.seed, int64(k))...); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	for _, ix := range []bulkdel.IndexOptions{
		{Name: "r_c0", Field: 0, Unique: true}, {Name: "r_c1", Field: 1}, {Name: "r_c2", Field: 2},
	} {
		if err := w.tbl.CreateIndex(ix); err != nil {
			return fmt.Errorf("index %s: %w", ix.Name, err)
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	w.front = session.NewFrontend(db)
	w.srv = wire.NewServer(w.front)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns net.ErrClosed after Shutdown
	}()
	for i := range w.conns {
		if w.conns[i], err = wire.Dial(ln.Addr().String()); err != nil {
			return err
		}
	}
	w.safeLo.Store(0)
	w.hi.Store(int64(w.sz.rows))
	w.writerDone.Store(false)
	return nil
}

// close disconnects the clients and drains the server.
func (w *sqlw) close() {
	for _, c := range w.conns {
		if c != nil {
			c.Close()
		}
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.srv.Shutdown(ctx) // a forced drain still waits for every connection
		cancel()
		<-w.served
	}
}

func sqlWindow(r *run) error {
	w := &sqlw{r: r, sz: sqlSizing(r.cfg.small)}
	defer w.close()
	for c := 0; c < w.sz.setups; c++ {
		w.close()
		w.db, w.tbl, w.srv, w.conns = nil, nil, nil, [2]*wire.Client{}
		runtime.GC()
		t0 := time.Now()
		if err := w.build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	start := r.beginTimed(w.db)
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); w.reader(start) }()
	go func() { defer wg.Done(); defer w.writerDone.Store(true); w.writer(deadline) }()
	wg.Wait()
	r.endTimed(w.db, start)

	lo, hi := w.safeLo.Load(), w.hi.Load()
	live := w.tbl.Count()
	r.done(live == hi-lo)
	if live != hi-lo {
		r.fail("final Count = %d, want %d", live, hi-lo)
	}
	err := w.tbl.Check()
	r.done(err == nil)
	if err != nil {
		r.fail("final Check: %v", err)
	}
	w.sqlLayers()
	return nil
}

// path picks the execution path of statement j: always the wire when
// untraced; the traced run rotates through all four.
func (w *sqlw) path(j int) int {
	if w.r.tr == nil {
		return pathWireRef
	}
	return j % numPaths
}

// exec runs one statement on path p for client c and returns its rows and
// affected count. Traced paths record spans named <layer>.<call>.<kind>.
func (w *sqlw) exec(c int, sess *session.Session, p int, s *stmt) ([][]int64, int64, error) {
	trc := w.r.tr
	if p == pathWireRef {
		trc = nil
	}
	op := trc.op()
	// The parse is timed on the in-process paths only, so the traced wire
	// path differs from pathWireRef by its spans alone.
	if trc != nil && p >= pathSession {
		sp := trc.begin("sql.parse."+s.kind, -1, op, c)
		_, err := sql.Parse(s.text)
		trc.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	switch p {
	case pathWireRef, pathWire:
		sp := trc.begin("wire.exec."+s.kind, -1, op, c)
		res, err := w.conns[c].Exec(s.text)
		trc.end(sp)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Affected, nil
	case pathSession:
		sp := trc.begin("session.exec."+s.kind, -1, op, c)
		res, err := sess.Exec(s.text)
		trc.end(sp)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Affected, nil
	}
	parent := trc.begin("bulkdel.exec."+s.kind, -1, op, c)
	defer trc.end(parent)
	switch s.kind {
	case "select":
		sp := trc.begin("bulkdel.lookup", parent, op, c)
		rows, err := w.tbl.Lookup(0, s.key)
		trc.end(sp)
		return rows, 0, err
	case "insert":
		for i, row := range s.rows {
			sp := trc.begin("bulkdel.insert", parent, op, c)
			_, err := w.tbl.Insert(row...)
			trc.end(sp)
			if err != nil {
				return nil, int64(i), err
			}
		}
		return nil, int64(len(s.rows)), nil
	}
	layers := captureCounters(w.db)
	sp := trc.begin("bulkdel.delete_range", parent, op, c)
	res, err := w.tbl.DeleteRange(0, s.lo, s.hi, bulkdel.BulkOptions{})
	trc.end(sp)
	if err != nil {
		return nil, 0, err
	}
	layers.finish(w.r, w.db)
	trc.nestPhases(sp, res.Trace.Root())
	recordPhases(w.r, res)
	return nil, res.Deleted, nil
}

// reader is connection A: open-loop point reads arriving as a Poisson
// process at a fixed mean rate (so arrivals cannot phase-lock with the
// writer's insert/delete cycle), each timed from its due time, until the
// writer ends the timed phase.
func (w *sqlw) reader(start time.Time) {
	r := w.r
	sess := w.front.NewSession(context.Background())
	defer sess.Close()
	rng := newRand(r.cfg.seed, 1)
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / sqlReadRate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if w.writerDone.Load() {
			return
		}
		r.late.add(time.Since(due))
		w.pick.RLock()
		lo, hi := w.safeLo.Load(), w.hi.Load()
		k := lo + rng.Int63n(hi-lo)
		s := &stmt{kind: "select", key: k, text: "SELECT * FROM r WHERE c0 = " + strconv.FormatInt(k, 10)}
		p := w.path(i)
		rows, _, err := w.exec(0, sess, p, s)
		w.pick.RUnlock()
		lat := time.Since(due)
		if p <= pathWire {
			r.read[p].add(lat)
		}
		ok := err == nil && len(rows) == 1 && slices.Equal(rows[0], windowRow(r.cfg.seed, k))
		r.done(ok)
		if !ok {
			r.fail("select c0=%d: %d rows %v, err %v", k, len(rows), rows, err)
		}
	}
}

// writer is connection B: closed-loop 10-row INSERTs at the head of the
// window and, each time the window has grown by 2 %, a range DELETE of the
// oldest 2 %, so the table size stays constant whatever the speed. It runs
// until the deadline has passed and it has sent the run's first stateN
// DELETEs.
func (w *sqlw) writer(deadline time.Time) {
	r := w.r
	sess := w.front.NewSession(context.Background())
	defer sess.Close()
	d := int64(w.sz.rows / 50)
	deletes := 0
	for j := 0; deletes < r.stateN() || time.Now().Before(deadline); j++ {
		lo, hi := w.safeLo.Load(), w.hi.Load()
		p := w.path(j)
		if hi-lo >= int64(w.sz.rows)+d {
			s := &stmt{kind: "delete", lo: lo, hi: lo + d - 1,
				text: fmt.Sprintf("DELETE FROM r WHERE c0 BETWEEN %d AND %d", lo, lo+d-1)}
			w.pick.Lock()
			w.safeLo.Store(lo + d)
			w.pick.Unlock()
			c0 := w.db.Clock()
			t0 := time.Now()
			_, n, err := w.exec(1, sess, p, s)
			lat := time.Since(t0)
			if p <= pathWire {
				r.del[p].add(lat)
			}
			r.addDelSim(w.db.Clock() - c0)
			if deletes++; deletes == r.stateN() {
				r.markState(w.db, w.system, w.hi.Load()-w.safeLo.Load(), 128)
			}
			ok := err == nil && n == d
			r.done(ok)
			if !ok {
				r.fail("delete [%d, %d]: %d rows, err %v", lo, lo+d-1, n, err)
			}
			continue
		}
		s := &stmt{kind: "insert"}
		var b strings.Builder
		b.WriteString("INSERT INTO r VALUES ")
		for i := 0; i < sqlBatch; i++ {
			row := windowRow(r.cfg.seed, hi+int64(i))
			s.rows = append(s.rows, row)
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %d)", row[0], row[1], row[2], row[3])
		}
		s.text = b.String()
		t0 := time.Now()
		_, n, err := w.exec(1, sess, p, s)
		lat := time.Since(t0)
		if p <= pathWire {
			r.ins[p].add(lat)
		}
		ok := err == nil && n == sqlBatch
		r.done(ok)
		if !ok {
			r.fail("insert [%d, %d): %d rows, err %v", hi, hi+sqlBatch, n, err)
			return // the window can no longer be tracked
		}
		w.hi.Store(hi + sqlBatch)
	}
}

// sqlLayers derives the per-kind wire/session/sql metrics from the traced
// rotation: each layer's self time is its median minus the median of the
// layer below on the same seeded stream.
func (w *sqlw) sqlLayers() {
	trc := w.r.tr
	if trc == nil {
		return
	}
	med := func(name string) float64 { return us(medianDur(trc.durations(name))) }
	for _, k := range sqlKinds {
		wireT, sessT, directT := med("wire.exec."+k), med("session.exec."+k), med("bulkdel.exec."+k)
		w.r.setLayer("wire.rtt_us."+k, wireT)
		w.r.setLayer("session.exec_us."+k, sessT)
		w.r.setLayer("wire.self_us."+k, wireT-sessT)
		w.r.setLayer("session.self_us."+k, sessT-directT)
		w.r.setLayer("sql.parse_us."+k, med("sql.parse."+k))
	}
}
