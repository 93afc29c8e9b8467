package main

import (
	"time"

	"bulkdel"
	"bulkdel/internal/buffer"
	"bulkdel/internal/sim"
)

// stmtCounters holds the engine's exported counters at the start of one
// statement; finish records the statement's buffer and sim deltas.
type stmtCounters struct {
	pool buffer.Stats
	disk sim.Stats
}

func captureCounters(db *bulkdel.DB) *stmtCounters {
	return &stmtCounters{pool: db.PoolStats(), disk: db.DiskStats()}
}

func (c *stmtCounters) finish(r *run, db *bulkdel.DB) {
	p := db.PoolStats()
	h, m := float64(p.Hits-c.pool.Hits), float64(p.Misses-c.pool.Misses)
	r.sample("buffer.hits", h)
	r.sample("buffer.misses", m)
	r.sample("buffer.evictions", float64(p.Evictions-c.pool.Evictions))
	r.sample("buffer.dirty_evicts", float64(p.DirtyEvicts-c.pool.DirtyEvicts))
	if h+m > 0 {
		r.sample("buffer.hit_ratio", h/(h+m))
	}
	d := diskDelta(db.DiskStats(), c.disk)
	r.sample("sim.reads", float64(d.Reads))
	r.sample("sim.writes", float64(d.Writes))
	r.sample("sim.random_ops", float64(d.RandomOps))
	r.sample("sim.seq_ops", float64(d.SeqOps))
	r.sample("sim.chained_runs", float64(d.ChainedRuns))
	r.sample("sim.allocated_pages", float64(d.Allocated))
}

func diskDelta(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes,
		RandomOps: a.RandomOps - b.RandomOps, NearOps: a.NearOps - b.NearOps, SeqOps: a.SeqOps - b.SeqOps,
		ChainedRuns: a.ChainedRuns - b.ChainedRuns, Allocated: a.Allocated - b.Allocated,
		Compares: a.Compares - b.Compares, Records: a.Records - b.Records,
	}
}

// recordPhases samples each core phase's simulated time and page I/O from
// the statement's own phase spans; repeated phases (one index-pass per
// remaining index) are summed per statement.
func recordPhases(r *run, res *bulkdel.BulkResult) {
	if res == nil || res.Trace == nil {
		return
	}
	type acc struct {
		sim           time.Duration
		reads, writes uint64
		seen          bool
	}
	byName := make(map[string]*acc)
	for _, p := range corePhases {
		byName[p] = &acc{}
	}
	for _, c := range res.Trace.Root().Children {
		a := byName[c.Name]
		if a == nil {
			continue
		}
		a.sim += c.End - c.Start
		a.reads += c.IO.Reads
		a.writes += c.IO.Writes
		a.seen = true
	}
	for _, p := range corePhases {
		a := byName[p]
		if !a.seen {
			continue
		}
		r.sample("core."+p+".sim_s", a.sim.Seconds())
		r.sample("core."+p+".reads", float64(a.reads))
		r.sample("core."+p+".writes", float64(a.writes))
	}
}

// dbCounters snapshots the DB-wide counters compared across the timed
// phase: the WAL appender queue and the registry's cc/mvcc counters.
type dbCounters struct {
	appends, appendBytes, flushes, flushPages uint64
	appendWaitNS                              int64
	reg                                       map[string]int64
}

func snapDB(db *bulkdel.DB) dbCounters {
	var c dbCounters
	if w := db.Inspect().WAL; w != nil {
		c.appends, c.appendBytes, c.flushes, c.flushPages = w.Appends, w.AppendBytes, w.Flushes, w.FlushPages
		c.appendWaitNS = w.AppendWaitNS
	}
	c.reg = make(map[string]int64)
	snap := db.Observer().Registry().Snapshot()
	for _, v := range snap.Counters {
		c.reg[v.Name] = v.Value
	}
	for _, v := range snap.Gauges {
		c.reg[v.Name] = v.Value
	}
	return c
}

// recordDBLayers sets the WAL (per completed operation) and cc/mvcc
// (whole timed phase) metrics from two snapshots.
func recordDBLayers(r *run, a, b dbCounters, ops int64) {
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	r.setLayer("wal.appends", per(float64(b.appends-a.appends)))
	r.setLayer("wal.append_bytes", per(float64(b.appendBytes-a.appendBytes)))
	r.setLayer("wal.flushes", per(float64(b.flushes-a.flushes)))
	r.setLayer("wal.flush_pages", per(float64(b.flushPages-a.flushPages)))
	r.setLayer("wal.append_wait_us", per(float64(b.appendWaitNS-a.appendWaitNS)/1e3))
	r.setLayer("wal.queue_peak", float64(b.reg["wal_queue_peak"]))
	r.setLayer("cc.lock_waits", float64(b.reg["cc_lock_waits"]-a.reg["cc_lock_waits"]))
	r.setLayer("cc.lock_wait_us", float64(b.reg["cc_lock_wait_us"]-a.reg["cc_lock_wait_us"]))
	r.setLayer("cc.retries", float64(b.reg["cc_retries"]-a.reg["cc_retries"]))
	r.setLayer("mvcc.snapshot_reads", float64(b.reg["mvcc_snapshot_reads"]-a.reg["mvcc_snapshot_reads"]))
	r.setLayer("mvcc.fallback_scans", float64(b.reg["mvcc_snapshot_fallback_scans"]-a.reg["mvcc_snapshot_fallback_scans"]))
	r.setLayer("mvcc.snapshot_read_waits", float64(b.reg["mvcc_snapshot_read_waits"]-a.reg["mvcc_snapshot_read_waits"]))
}
