// The ⋈̸ pass runner. Every structure pass of a bulk delete — the access
// index, the heap or one heap partition, one remaining index — runs through
// the same three helpers:
//
//   - phase opens the phase's trace span, makes it the parent of the
//     pass's sub-spans, and attributes an error to the phase and structure;
//   - pass is one phase around one structure: TStructStart, the ⋈̸ itself,
//     TStructDone, and a StructStats whose I/O is the span's diff;
//   - fanOut runs a set of mutually independent passes (the partitions of
//     a partitioned heap, the remaining indexes) inline through pass when
//     the plan is serial, or as one internal/sched DAG over the device
//     array — one pass per device arm at a time, at most Options.Parallel
//     at once.
//
// A DAG node runs on a child execCtx of its own, which keeps what the
// concurrent passes share safe:
//
//   - each child has its own checkpoint cursor, so TCheckpoint progress
//     stays per-structure (the WAL's BulkState tracks every active
//     structure, not just the last one started);
//   - WAL appends funnel through wal.Log's internal mutex — a single
//     ordered appender — and each node's records interleave at
//     whole-record granularity;
//   - intermediate files a node creates (hash partitions) land on the
//     node's own device via execCtx.scratchDev;
//   - a node's StructStats are its device and buffer-shard deltas (exact:
//     the node had the arm to itself), and its span is added after the DAG
//     from the schedule;
//   - the job's done hook (the §3.1 critical-index bookkeeping, the shared
//     Stats counters) runs under the fan-out's lock, but OnStructureDone is
//     called straight from the nodes: its caller serializes it.
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
	"bulkdel/internal/sched"
	"bulkdel/internal/sim"
)

// ChooseParallel picks the effective degree of parallelism for the
// remaining-index passes of a delete on field, given the caller's cap
// (Options.Parallel). The planner's reasoning is structural: every pass
// scans roughly the same victim count, so the passes are balanced and the
// best schedule is simply as wide as the hardware allows — the cap, clamped
// to the number of remaining indexes and to the number of distinct devices
// their trees live on.
func ChooseParallel(tgt *Target, field int, max int) int {
	access := accessIndex(tgt, field)
	return chooseParallelRest(tgt, remainingIndexes(tgt, access), max)
}

func chooseParallelRest(tgt *Target, rest []*IndexRef, max int) int {
	files := make([]sim.FileID, len(rest))
	for i, ix := range rest {
		files[i] = ix.Tree.ID()
	}
	return clampWorkers(tgt.Pool.Disk(), max, files)
}

// clampWorkers bounds a worker cap by the number of structures to process
// and by the distinct devices their files live on: two passes sharing one
// arm cannot overlap, so extra workers would idle.
func clampWorkers(disk *sim.Disk, max int, files []sim.FileID) int {
	devs := make(map[int]bool, len(files))
	for _, f := range files {
		devs[disk.DeviceOf(f)] = true
	}
	w := max
	if w > len(files) {
		w = len(files)
	}
	if w > len(devs) {
		w = len(devs)
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

// passJob is one structure's ⋈̸ pass.
type passJob struct {
	phase  string // span name: "access-pass", "heap-pass" or "index-pass"
	name   string // the structure: span detail, StructStats and DAG node label
	detail string // span detail
	// tgt is the target a fanned-out pass edits: the table's, or a
	// partition's own view of it. pass runs on its receiver's target.
	tgt   *Target
	file  sim.FileID
	kind  uint64 // TStructStart kind: 0 heap, 1 index
	flush func() error
	// run is the ⋈̸ itself, between TStructStart and TStructDone; it
	// returns the entries or records it deleted.
	run func(ce *execCtx) (int64, error)
	// done, when set, runs once the structure is done, under the fan-out's
	// lock.
	done func(del int64)
}

// phase runs body as one executor phase: it opens the phase's span as the
// parent of body's sub-spans, and attributes body's error to the phase and
// structure. The span closes only when body succeeds.
func (e *execCtx) phase(name, detail, structure string, body func() error) error {
	sp := e.span(name, detail)
	e.cur = sp
	if err := body(); err != nil {
		return phaseErr(name, structure, err)
	}
	sp.Finish()
	e.cur = nil
	return nil
}

// pass runs one structure's ⋈̸ as a phase and appends its StructStats,
// with the I/O attributed from the phase span's diff.
func (e *execCtx) pass(j passJob) (int64, error) {
	var del int64
	var sp *obs.Span
	var t0 time.Duration
	err := e.phase(j.phase, j.detail, j.name, func() error {
		sp, t0 = e.cur, e.disk().Clock()
		var err error
		del, err = e.structure(j)
		return err
	})
	if err != nil {
		return del, err
	}
	ss := StructStats{Name: j.name, File: j.file, Deleted: del, Elapsed: e.disk().Clock() - t0}
	ss.fillIO(sp)
	e.stats.PerStructure = append(e.stats.PerStructure, ss)
	return del, nil
}

// structure brackets the pass body with its structure-start and
// structure-done protocol.
func (e *execCtx) structure(j passJob) (int64, error) {
	if err := e.structStart(j.file, j.kind); err != nil {
		return 0, err
	}
	del, err := j.run(e)
	if err != nil {
		return del, err
	}
	return del, e.structDone(j.file, j.flush)
}

// fork returns the context one fanned-out pass runs on: the statement's
// options and stats, the pass's target, its own checkpoint cursor, and
// scratch files placed on dev.
func (e *execCtx) fork(tgt *Target, dev int) *execCtx {
	return &execCtx{tgt: tgt, opts: e.opts, stats: e.stats, scratchDev: dev}
}

// fanOut runs mutually independent passes, at most workers at once (the cap
// is clamped to the jobs and their devices). With one worker the jobs run
// inline, in order, each through pass; otherwise they run as one sched DAG
// and the returned schedule is the section's.
func (e *execCtx) fanOut(jobs []passJob, workers int) (*sched.Schedule, error) {
	disk := e.disk()
	files := make([]sim.FileID, len(jobs))
	for i, j := range jobs {
		files[i] = j.file
	}
	workers = clampWorkers(disk, workers, files)
	var mu sync.Mutex
	done := func(j passJob, del int64) {
		if j.done != nil {
			mu.Lock()
			defer mu.Unlock()
			j.done(del)
		}
	}

	if workers == 1 {
		for _, j := range jobs {
			ce := e.fork(j.tgt, e.scratchDev)
			ce.trace, ce.crash = e.trace, e.crash // crash injection counts statement-wide
			del, err := ce.pass(j)
			e.crash = ce.crash
			if err != nil {
				return nil, err
			}
			done(j, del)
		}
		return nil, nil
	}

	pool := e.tgt.Pool
	type nodeRes struct {
		del     int64
		elapsed time.Duration
		d0, d1  sim.Stats
		h0, h1  buffer.Stats
	}
	results := make([]nodeRes, len(jobs))
	nodes := make([]sched.Node, len(jobs))
	for i, j := range jobs {
		dev := disk.DeviceOf(j.file)
		ce := e.fork(j.tgt, dev)
		nodes[i] = sched.Node{
			Label:  j.name,
			Device: dev,
			Run: func() error {
				e.opts.Stmt.EventDev(obs.EvNodeStart, j.name, dev)
				r := &results[i]
				r.d0, r.h0 = disk.DeviceStats(dev), pool.ShardStats(dev)
				b0 := disk.DeviceBusy(dev)
				del, err := ce.structure(j)
				r.del = del
				r.d1, r.h1 = disk.DeviceStats(dev), pool.ShardStats(dev)
				r.elapsed = disk.DeviceBusy(dev) - b0
				e.opts.Stmt.EventDev(obs.EvNodeFinish, j.name, dev)
				if err != nil {
					return err
				}
				done(j, del)
				return nil
			},
		}
	}

	// Dispatching a node is a cancel checkpoint under checkCancel's rule:
	// only a logged run may stop between passes, since only it can roll the
	// statement forward. Nodes already running stop at their own
	// checkpoints (their contexts carry e.opts.Ctx).
	ctx := context.Background()
	if e.opts.Ctx != nil && e.opts.Log != nil {
		ctx = e.opts.Ctx
	}
	sc, err := sched.ExecutePoolCtx(ctx, e.opts.Sched, disk, workers, nodes)
	if err != nil {
		if ctx.Err() != nil && !errors.Is(err, ErrCancelled) {
			// The scheduler reports a bare ctx error for nodes it never
			// started; normalize to the executor's cancel sentinel.
			err = fmt.Errorf("%w: %v", ErrCancelled, err)
		}
		return nil, phaseErr(jobs[0].phase, "parallel section", err)
	}
	stats := e.stats
	stats.AdmissionWait += sc.AdmissionWait
	if workers > stats.Workers {
		stats.Workers = workers
	}
	// Per-node attribution, appended in plan order: I/O counters are the
	// node's device-stat deltas, hits/misses its shard's deltas. WAL bytes
	// of concurrent passes are interleaved in one stream and stay
	// unattributed.
	for i, j := range jobs {
		r := results[i]
		stats.PerStructure = append(stats.PerStructure, StructStats{
			Name:    j.name,
			File:    j.file,
			Deleted: r.del,
			Elapsed: r.elapsed,
			Reads:   r.d1.Reads - r.d0.Reads,
			Writes:  r.d1.Writes - r.d0.Writes,
			Seeks:   r.d1.RandomOps - r.d0.RandomOps,
			Hits:    r.h1.Hits - r.h0.Hits,
			Misses:  r.h1.Misses - r.h0.Misses,
		})
		it := sc.Items[i]
		sp := e.span(j.phase, j.detail)
		sp.Set("worker", fmt.Sprintf("%d", it.Worker))
		sp.Set("device", fmt.Sprintf("%d", it.Device))
		sp.Set("start", it.Start.String())
		sp.Set("finish", it.Finish.String())
		sp.Finish()
	}
	return sc, nil
}
