// Parallel execution of phase 3: the ⋈̸ passes over the remaining indexes
// are mutually independent (each touches one tree plus its own staged key
// list), so on a multi-device disk array they form a fan-out DAG that
// internal/sched can overlap — one pass per device arm at a time, at most
// Options.Parallel at once.
//
// Everything the passes share is made safe for that concurrency here:
//
//   - each node runs on a child execCtx with its own checkpoint cursor, so
//     TCheckpoint progress stays per-structure (the WAL's BulkState tracks
//     every active structure, not just the last one started);
//   - WAL appends funnel through wal.Log's internal mutex — a single
//     ordered appender — and each node's records interleave at whole-record
//     granularity;
//   - intermediate files a node creates (hash partitions) land on the
//     node's own device via execCtx.scratchDev;
//   - the engine callbacks (OnStructureDone, OnCriticalDone) and the shared
//     counters (Partitions, PerStructure) are serialized by the runner.
//
// Per-node costs stay deterministic because a node only charges its own
// device (exclusive for the node's duration) and the global CPU clock
// (order-independent): see the internal/sched package comment.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bulkdel/internal/buffer"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sched"
	"bulkdel/internal/sim"
)

// ChooseParallel picks the effective degree of parallelism for the
// remaining-index passes of a delete on field, given the caller's cap
// (Options.Parallel). The planner's reasoning is structural: every pass
// scans roughly the same victim count, so the passes are balanced and the
// best schedule is simply as wide as the hardware allows — the cap, clamped
// to the number of remaining indexes and to the number of distinct devices
// their trees live on (two passes sharing one arm cannot overlap, so extra
// workers would idle).
func ChooseParallel(tgt *Target, field int, max int) int {
	access := accessIndex(tgt, field)
	return chooseParallelRest(tgt, remainingIndexes(tgt, access), max)
}

func chooseParallelRest(tgt *Target, rest []*IndexRef, max int) int {
	if max <= 1 || len(rest) < 2 {
		return 1
	}
	disk := tgt.Pool.Disk()
	devs := make(map[int]bool, len(rest))
	for _, ix := range rest {
		devs[disk.DeviceOf(ix.Tree.ID())] = true
	}
	w := len(devs)
	if len(rest) < w {
		w = len(rest)
	}
	if w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stageDev returns the device an index's intermediate key list should be
// staged on: the index's own device when phase 3 will run in parallel (the
// pass must only touch its own arm), or -1 (default placement) serially.
func (e *execCtx) stageDev(ix *IndexRef) int {
	if e.parWorkers <= 1 {
		return -1
	}
	return e.disk().DeviceOf(ix.Tree.ID())
}

// materializeOn writes an iterator's rows to a sealed row file on device
// dev (dev < 0 = default placement).
func materializeOn(e *execCtx, it rowIter, rowSize int, dev int) (*rowFile, error) {
	rf, err := newRowFileOn(e.disk(), rowSize, dev)
	if err != nil {
		return nil, err
	}
	for {
		row, ok, err := it()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := rf.append(row); err != nil {
			return nil, err
		}
	}
	if err := rf.seal(); err != nil {
		return nil, err
	}
	return rf, nil
}

// parallelIndexPass is the body of one phase-3 node: the ⋈̸ over a single
// remaining index, running on its own child context. Unlike the serial
// loop it never consults resume state (recovery replays serially) and the
// sort/merge key list is always a materialized row file, staged onto the
// index's device before the fan-out.
func parallelIndexPass(ce *execCtx, ix *IndexRef, method Method,
	keyFiles map[sim.FileID]*rowFile, ridSet map[record.RID]struct{}) (int64, int, error) {

	if err := ce.structStart(ix.Tree.ID(), 1); err != nil {
		return 0, 0, err
	}
	var del int64
	var parts int
	var err error
	switch method {
	case Hash:
		del, err = indexDeleteByRIDProbe(ce, ix, ridSet)
	case HashPartition:
		del, parts, err = indexDeletePartitioned(ce, ix, keyFiles[ix.Tree.ID()])
	default: // SortMerge
		var rows rowIter
		rows, err = keyFiles[ix.Tree.ID()].iterator(0)
		if err == nil {
			del, err = mergeDeleteIndexByFullKey(ce, ix, rows, nil)
		}
	}
	if err != nil {
		return del, parts, err
	}
	if err := ix.Tree.RebuildUpper(ce.opts.Reorganize); err != nil {
		return del, parts, err
	}
	if err := ce.structDone(ix.Tree.ID(), func() error { return ix.Tree.Flush() }); err != nil {
		return del, parts, err
	}
	return del, parts, nil
}

// runIndexPassesParallel executes phase 3 as a sched DAG and reports the
// deterministic virtual schedule in e.stats. criticalLeft/signalCritical
// are run()'s §3.1 bookkeeping; the runner serializes them (and the engine
// callbacks they may fire) behind one mutex.
func (e *execCtx) runIndexPassesParallel(rest []*IndexRef, method Method, workers int,
	keyFiles map[sim.FileID]*rowFile, ridSet map[record.RID]struct{},
	criticalLeft *int, signalCritical func()) error {

	disk := e.disk()
	pool := e.tgt.Pool
	stats := e.stats

	var live []*IndexRef
	for _, ix := range rest {
		if e.skip(ix.Tree.ID()) {
			if ix.Unique {
				*criticalLeft--
			}
			signalCritical()
			continue
		}
		live = append(live, ix)
	}
	if len(live) == 0 {
		return nil
	}

	var critMu sync.Mutex
	noteDone := func(unique bool) {
		critMu.Lock()
		defer critMu.Unlock()
		if unique {
			*criticalLeft--
		}
		signalCritical()
	}

	type nodeRes struct {
		del     int64
		parts   int
		elapsed time.Duration
		d0, d1  sim.Stats
		h0, h1  buffer.Stats
	}
	results := make([]nodeRes, len(live))
	nodes := make([]sched.Node, len(live))
	for i, ix := range live {
		i, ix := i, ix
		dev := disk.DeviceOf(ix.Tree.ID())
		ce := &execCtx{tgt: e.tgt, opts: e.opts, stats: stats,
			parWorkers: workers, scratchDev: dev}
		nodes[i] = sched.Node{
			Label:  ix.Name,
			Device: dev,
			Run: func() error {
				e.opts.Stmt.EventDev(obs.EvNodeStart, ix.Name, dev)
				r := &results[i]
				r.d0, r.h0 = disk.DeviceStats(dev), pool.ShardStats(dev)
				b0 := disk.DeviceBusy(dev)
				del, parts, err := parallelIndexPass(ce, ix, method, keyFiles, ridSet)
				r.del, r.parts = del, parts
				r.d1, r.h1 = disk.DeviceStats(dev), pool.ShardStats(dev)
				r.elapsed = disk.DeviceBusy(dev) - b0
				e.opts.Stmt.EventDev(obs.EvNodeFinish, ix.Name, dev)
				if err != nil {
					return err
				}
				noteDone(ix.Unique)
				return nil
			},
		}
	}

	// DAG-node boundaries are cancel checkpoints: a done context stops
	// further nodes from dispatching, while nodes already running stop at
	// their own checkpoint boundaries (the child contexts carry e.opts.Ctx).
	ctx := e.opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sc, err := sched.ExecutePoolCtx(ctx, e.opts.Sched, disk, workers, nodes)
	if err != nil {
		if ctx.Err() != nil && !errors.Is(err, ErrCancelled) {
			// The scheduler reports a bare ctx error for nodes it never
			// started; normalize to the executor's cancel sentinel.
			err = fmt.Errorf("%w: %v", ErrCancelled, err)
		}
		return phaseErr("index-pass", "parallel section", err)
	}
	stats.Schedule = sc
	stats.Workers = workers
	stats.AdmissionWait += sc.AdmissionWait

	// Per-node attribution, appended in plan order: I/O counters are the
	// node's device-stat deltas (exact — the node had the arm to itself),
	// hits/misses its shard's deltas. WAL bytes of concurrent passes are
	// interleaved in one stream and stay unattributed.
	for i, ix := range live {
		r := results[i]
		if r.parts > stats.Partitions {
			stats.Partitions = r.parts
		}
		ss := StructStats{
			Name:    ix.Name,
			File:    ix.Tree.ID(),
			Deleted: r.del,
			Elapsed: r.elapsed,
			Reads:   r.d1.Reads - r.d0.Reads,
			Writes:  r.d1.Writes - r.d0.Writes,
			Seeks:   r.d1.RandomOps - r.d0.RandomOps,
			Hits:    r.h1.Hits - r.h0.Hits,
			Misses:  r.h1.Misses - r.h0.Misses,
		}
		stats.PerStructure = append(stats.PerStructure, ss)
		it := sc.Items[i]
		sp := e.span("index-pass", fmt.Sprintf("⋈̸[%s] %s (by key)", method, ix.Name))
		sp.Set("worker", fmt.Sprintf("%d", it.Worker))
		sp.Set("device", fmt.Sprintf("%d", it.Device))
		sp.Set("start", it.Start.String())
		sp.Set("finish", it.Finish.String())
		sp.Finish()
	}
	return nil
}
