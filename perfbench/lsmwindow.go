package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"bulkdel"
	"bulkdel/internal/lsm"
	"bulkdel/internal/sim"
)

// lsm-window: an LSM table (4 fields, 128 B) holding a window of
// increasing keys behind a 4 MB pool, WAL on, closed-loop on one goroutine
// through the Go API. Each round inserts a batch of about 1000 new keys,
// runs 1000 lookups of live keys, drops as many of the oldest keys with one
// DeleteRange (a single range tombstone) and, every 10th round, runs
// CompactLSM.

const (
	lsmCompactEvery = 10 // rounds per CompactLSM
	lsmProbeRounds  = 10 // rounds the determinism probe compares
)

type lsmSizes struct{ rows, pool, setups, batch, lookups int }

func lsmSizing(small bool) lsmSizes {
	if small {
		return lsmSizes{rows: 2000, pool: 1 << 20, setups: 2, batch: 100, lookups: 100}
	}
	return lsmSizes{rows: 50000, pool: 4 << 20, setups: 5, batch: 1000, lookups: 1000}
}

func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(uint64(seed)*31 + uint64(stream)))))
}

type lsmw struct {
	r      *run
	sz     lsmSizes
	db     *bulkdel.DB
	tbl    *bulkdel.Table
	system map[sim.FileID]bool
	lo, hi int64 // live keys are [lo, hi)

	inserted int64 // rows inserted in the timed phase
	tombAge  uint64
}

func (l *lsmw) build() error {
	db, err := bulkdel.Open(bulkdel.Options{BufferBytes: l.sz.pool})
	if err != nil {
		return err
	}
	l.db, l.system = db, systemFiles(db)
	if l.tbl, err = db.CreateTableLSM("r", 4, 128); err != nil {
		return err
	}
	for k := 0; k < l.sz.rows; k++ {
		if _, err := l.tbl.Insert(windowRow(l.r.cfg.seed, int64(k))...); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	l.lo, l.hi = 0, int64(l.sz.rows)
	return db.Flush()
}

func lsmWindow(r *run) error {
	l := &lsmw{r: r, sz: lsmSizing(r.cfg.small)}
	// Every set-up copy but the last replays the first rounds untimed; the
	// timed copy's first rounds must repeat their simulated cost exactly.
	var probes [][]roundSim
	for c := 0; c < l.sz.setups; c++ {
		l.db, l.tbl = nil, nil
		runtime.GC()
		t0 := time.Now()
		if err := l.build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0))
		if c == l.sz.setups-1 {
			break
		}
		var sims []roundSim
		for i := 0; i < lsmProbeRounds; i++ {
			s, err := l.round(i, false)
			if err != nil {
				return err
			}
			sims = append(sims, s)
		}
		probes = append(probes, sims)
	}

	m0, d0 := l.tbl.LSMManifest(), l.db.DiskStats()
	start := r.beginTimed(l.db)
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var timed []roundSim
	for i := 0; i < r.stateN() || time.Now().Before(deadline); i++ {
		s, err := l.round(i, true)
		if err != nil {
			return err
		}
		timed = append(timed, s)
		if i+1 == r.stateN() {
			r.markState(l.db, l.system, l.hi-l.lo, 128)
		}
	}
	r.endTimed(l.db, start)
	m1, d1 := l.tbl.LSMManifest(), l.db.DiskStats()

	mismatches := 0
	for _, pr := range probes {
		for i, s := range pr {
			if s != timed[i] {
				mismatches++
			}
		}
	}
	r.done(mismatches == 0)
	if mismatches > 0 {
		r.fail("lsm-window simulated cost of %d of the first %d rounds differs across identical set-ups", mismatches, lsmProbeRounds)
	}
	r.setLayer("sim.probe_mismatches", float64(mismatches))
	r.note("first %d rounds' simulated cost bit-identical across %d set-ups: %v", lsmProbeRounds, len(probes)+1, mismatches == 0)

	live := l.tbl.Count()
	r.done(live == l.hi-l.lo)
	if live != l.hi-l.lo {
		r.fail("final Count = %d, want %d", live, l.hi-l.lo)
	}
	err := l.tbl.Check()
	r.done(err == nil)
	if err != nil {
		r.fail("final Check: %v", err)
	}

	var tables int
	var tombs int64
	for _, lvl := range m1.Levels {
		for _, t := range lvl {
			tables++
			tombs += t.Tombs + int64(t.RangeTombs)
		}
	}
	r.setLayer("lsm.flush_ticks", float64(m1.Tick-m0.Tick))
	r.setLayer("lsm.files_created", float64(m1.Created-m0.Created))
	r.setLayer("lsm.sstables", float64(tables))
	r.setLayer("lsm.tombs_live", float64(tombs))
	r.setLayer("lsm.oldest_tomb_age_ticks", float64(l.tombAge))
	r.note("oldest live tombstone reached %d flush ticks (TombstoneTTL bound: 4)", l.tombAge)
	if l.inserted > 0 {
		r.setLayer("lsm.write_amp", float64((d1.Writes-d0.Writes)*sim.PageSize)/float64(l.inserted*128))
	}
	return nil
}

// oldestTomb returns the age in flush ticks of the oldest SSTable still
// carrying a tombstone.
func oldestTomb(m lsm.Manifest) uint64 {
	var age uint64
	for _, lvl := range m.Levels {
		for _, t := range lvl {
			if t.Tombs+int64(t.RangeTombs) > 0 && m.Tick-t.Born > age {
				age = m.Tick - t.Born
			}
		}
	}
	return age
}

// round runs one insert / lookup / range-delete (/ compact) round.
func (l *lsmw) round(i int, timed bool) (roundSim, error) {
	r, db, tbl := l.r, l.db, l.tbl
	rng := newRand(r.cfg.seed, int64(i)+2)
	// The seed varies each round's batch by up to ±20 %; the delete drops
	// as many keys, so the window keeps its size.
	batch := int64(l.sz.batch) * int64(80+rng.Intn(41)) / 100
	var trc *tracer
	if timed {
		trc = r.tracerFor(i)
	}
	slot := idx(trc != nil)
	op := trc.op()
	c0, d0 := db.Clock(), db.DiskStats()

	for k := l.hi; k < l.hi+batch; k++ {
		t := time.Now()
		sp := trc.begin("bulkdel.insert", -1, op, 0)
		_, err := tbl.Insert(windowRow(r.cfg.seed, k)...)
		trc.end(sp)
		if timed {
			r.ins[slot].add(time.Since(t))
			l.inserted++
		}
		r.done(err == nil)
		if err != nil {
			return roundSim{}, fmt.Errorf("insert %d: %w", k, err)
		}
	}
	l.hi += batch

	for j := 0; j < l.sz.lookups; j++ {
		k := l.lo + rng.Int63n(l.hi-l.lo)
		t := time.Now()
		sp := trc.begin("bulkdel.lookup", -1, op, 0)
		rows, err := tbl.Lookup(0, k)
		trc.end(sp)
		if timed {
			r.read[slot].add(time.Since(t))
		}
		ok := err == nil && len(rows) == 1 && slices.Equal(rows[0], windowRow(r.cfg.seed, k))
		r.done(ok)
		if !ok {
			r.fail("lookup %d: %d rows, err %v", k, len(rows), err)
		}
	}

	lo, hi := l.lo, l.lo+batch-1
	var layers *stmtCounters
	if trc != nil {
		layers = captureCounters(db)
	}
	dc0 := db.Clock()
	t := time.Now()
	sp := trc.begin("bulkdel.delete_range", -1, op, 0)
	res, err := tbl.DeleteRange(0, lo, hi, bulkdel.BulkOptions{Timeout: time.Minute})
	trc.end(sp)
	lat, simT := time.Since(t), db.Clock()-dc0
	if err != nil {
		return roundSim{}, fmt.Errorf("delete range [%d, %d]: %w", lo, hi, err)
	}
	if timed {
		r.del[slot].add(lat)
		r.addDelSim(simT)
	}
	if layers != nil {
		layers.finish(r, db)
	}
	l.lo = hi + 1
	// A range tombstone does not count its victims (Deleted = -1): check
	// that the range reads empty, and, every compaction round (a full
	// merged scan costs more than the rest of the round), the live count.
	gone, err := tbl.LookupRange(0, lo, hi)
	ok := err == nil && res.Deleted == -1 && len(gone) == 0
	r.done(ok)
	if !ok {
		r.fail("delete range [%d, %d]: Deleted %d, %d rows left, err %v", lo, hi, res.Deleted, len(gone), err)
	}

	if (i+1)%lsmCompactEvery == 0 {
		n := tbl.Count()
		r.done(n == l.hi-l.lo)
		if n != l.hi-l.lo {
			r.fail("round %d: Count %d, want %d", i, n, l.hi-l.lo)
		}
		var ctr *tracer // compactions always fall on odd rounds: trace each
		if timed {
			ctr = r.tr
		}
		cc0 := db.Clock()
		sp := ctr.begin("lsm.compact", -1, op, 0)
		err := tbl.CompactLSM()
		ctr.end(sp)
		r.done(err == nil)
		if err != nil {
			return roundSim{}, fmt.Errorf("compact: %w", err)
		}
		if timed {
			r.sample("lsm.compact_sim_s", (db.Clock() - cc0).Seconds())
		}
	}
	if timed {
		l.tombAge = max(l.tombAge, oldestTomb(tbl.LSMManifest()))
	}
	return roundSim{clock: db.Clock() - c0, disk: diskDelta(db.DiskStats(), d0)}, nil
}
