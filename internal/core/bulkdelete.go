package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sched"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// Execute runs DELETE FROM tgt WHERE field IN (values) with the vertical
// bulk-delete operator. It is the paper's §2 end to end: victim-list
// sorting, the ⋈̸ against the access index, the ⋈̸ against the base table,
// and one ⋈̸ per remaining index — with the physical strategy chosen by
// Options.Method (or the planner, for Auto), reorganization per §2.3, and
// the §3.2 logging protocol when a WAL is supplied.
func Execute(tgt *Target, field int, values []int64, opts Options) (*Stats, error) {
	o := opts.withDefaults()
	if field < 0 || field >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: field %d out of range", field)
	}
	ests := EstimateCosts(tgt, field, len(values), o.Memory)
	method := o.Method
	if method == Auto {
		method = bestEstimate(ests)
	}
	e := &execCtx{tgt: tgt, opts: o}
	stats := &Stats{Method: method, Victims: len(values), Estimates: ests}
	e.stats = stats

	// Cancel checkpoint before any work: stopping here is free (nothing
	// was touched), so it is the one boundary that is recoverable even
	// without a WAL. All later checkpoints require a log.
	if err := e.cancelPoint(); err != nil {
		return nil, phaseErr("admit", tgt.Name, err)
	}

	// Tracing: every execution carries a span tree; an externally supplied
	// trace is appended to (and finished by) its owner.
	tr := o.Trace
	ownTrace := tr == nil
	if ownTrace {
		tr = obs.NewTrace("bulk-delete",
			fmt.Sprintf("table=%s field=%d victims=%d", tgt.Name, field, len(values)),
			traceSource(tgt, o.Log))
	}
	e.trace = tr
	stats.Trace = tr
	root := tr.Root()
	root.Set("method", method.String())
	for _, est := range ests {
		root.Set("estimate["+est.Method.String()+"]", est.Time.String())
	}
	start := e.disk().Clock()

	access := accessIndex(tgt, field)
	rest := remainingIndexes(tgt, access)
	parts := estimatePartitions(tgt, rest, len(values), o.Memory)
	stats.Plan = BuildPlan(tgt, field, method, o.Memory, parts)
	stats.PlanText = stats.Plan.String()

	logged := o.Log != nil
	var victimFile *rowFile
	if logged {
		err := e.phase("materialize-victims", fmt.Sprintf("%d values → stable storage", len(values)), tgt.Name, func() error {
			if _, err := o.Log.Append(wal.TBegin, o.TxID, 0, 0, nil); err != nil {
				return err
			}
			// Materialize the sorted victim list to stable storage before
			// touching anything (paper §3.2).
			srt, err := sortVictims(e, values)
			if err != nil {
				return err
			}
			it, err := srt.Finish()
			if err != nil {
				return err
			}
			victimFile, err = materializeOn(e, it.Next, keyenc.Int64Width, -1)
			it.Close()
			if err != nil {
				return err
			}
			e.stage(victimFile.file)
			// Payload: victim row count + delete attribute, so recovery can
			// reconstruct the statement without the catalog's help.
			var payload [16]byte
			binary.LittleEndian.PutUint64(payload[:], uint64(victimFile.rows))
			binary.LittleEndian.PutUint64(payload[8:], uint64(field))
			if _, err := o.Log.Append(wal.TBulkStart, o.TxID,
				uint64(tgt.Heap.ID()), uint64(victimFile.file), payload[:]); err != nil {
				return err
			}
			o.Stmt.Event(obs.EvWAL, fmt.Sprintf("bulk-start rows=%d field=%d", victimFile.rows, field))
			return o.Log.Flush()
		})
		if err != nil {
			return nil, err
		}
	}

	if err := e.run(field, values, method, access, rest, victimFile, nil); err != nil {
		return stats, err
	}

	if logged {
		err := e.phase("wal-commit", "bulk-end + commit records", tgt.Name, func() error {
			if _, err := o.Log.Append(wal.TBulkEnd, o.TxID, 0, 0, nil); err != nil {
				return err
			}
			if _, err := o.Log.Append(wal.TCommit, o.TxID, 0, 0, nil); err != nil {
				return err
			}
			if err := o.Log.Flush(); err != nil {
				return err
			}
			o.Stmt.Event(obs.EvCommit, "bulk-end + commit durable")
			return nil
		})
		if err != nil {
			return stats, err
		}
		if err := e.dropStaged(); err != nil {
			return stats, err
		}
	}
	stats.Elapsed = e.disk().Clock() - start
	finishTiming(stats, e.disk())
	root.Set("deleted", fmt.Sprintf("%d", stats.Deleted))
	annotatePlan(stats)
	if ownTrace {
		tr.Finish()
	}
	return stats, nil
}

// finishTiming derives the wall-clock view of a finished statement. The
// global clock accumulates every charge, so Elapsed is the elapsed time of
// a serial execution; when phase 3 ran in parallel, the makespan replaces
// the parallel section's summed device time with its scheduled length (CPU
// charges of the section stay serial — a conservative accounting, since the
// simulator cannot attribute them to a worker).
func finishTiming(stats *Stats, disk *sim.Disk) {
	stats.Devices = disk.NumDevices()
	if stats.Workers == 0 {
		stats.Workers = 1
	}
	stats.Makespan = stats.Elapsed
	for _, sc := range []*sched.Schedule{stats.HeapSchedule, stats.Schedule} {
		if sc == nil {
			continue
		}
		var sum time.Duration
		for _, it := range sc.Items {
			sum += it.Duration
		}
		stats.Makespan = stats.Makespan - sum + sc.Makespan
	}
}

// stage registers a row file the statement has announced in the log (the
// victim list, the RID list, a key list). Recovery may need it until the
// statement commits; dropStaged releases it after that.
func (e *execCtx) stage(f sim.FileID) { e.staged = append(e.staged, f) }

// dropStaged drops the statement's staged row files. Call it only once the
// commit record is durable: recovery skips committed statements, so no one
// reads the files again. Dropping is a metadata operation with no simulated
// cost and no I/O.
func (e *execCtx) dropStaged() error {
	for _, f := range e.staged {
		if err := e.disk().DropFile(f); err != nil {
			return phaseErr("cleanup", e.tgt.Name, err)
		}
	}
	e.staged = nil
	return nil
}

// resumeState carries recovery positions into run.
type resumeState struct {
	st       wal.BulkState
	ridFile  *rowFile
	keyFiles map[sim.FileID]*rowFile
}

// run executes the phases. victimFile is non-nil in logged mode; rs is
// non-nil when resuming after a crash.
func (e *execCtx) run(field int, values []int64, method Method,
	access *IndexRef, rest []*IndexRef, victimFile *rowFile, rs *resumeState) error {

	o := e.opts
	logged := o.Log != nil
	stats := e.stats

	// Worker cap for the fan-outs. Recovery replays serially: the
	// roll-forward has per-structure progress to respect and nothing to
	// gain from overlap it could not also get on the original run.
	stats.ParallelRequested = o.Parallel
	maxWorkers := 1
	if o.Parallel > 1 && rs == nil {
		maxWorkers = o.Parallel
	}
	e.parWorkers = chooseParallelRest(e.tgt, rest, maxWorkers)

	// victimIter returns a fresh iterator over the sorted victim keys.
	victimIter := func() (rowIter, error) {
		if victimFile != nil {
			return victimFile.iterator(0)
		}
		sp := e.child("sort-victims", fmt.Sprintf("%d values by key", len(values)))
		srt, err := sortVictims(e, values)
		if err != nil {
			sp.Finish()
			return nil, err
		}
		it, err := srt.Finish()
		sp.Finish()
		if err != nil {
			return nil, err
		}
		return it.Next, nil
	}

	// ---- Phase 1: find (and in sort/merge order, delete) the victims in
	// the access index, producing the RID list.
	var ridFile *rowFile               // materialized sorted RID list (logged)
	var ridIter rowIter                // sorted RID rows (unlogged)
	var ridSet map[record.RID]struct{} // hash method
	collectRIDs := func(emit func(record.RID) error) error {
		vi, err := victimIter()
		if err != nil {
			return err
		}
		if access == nil {
			vals := values
			if len(vals) == 0 && victimFile != nil {
				// Recovery: decode the materialized victim keys.
				err := victimFile.iterate(0, func(row []byte) error {
					vals = append(vals, keyenc.Int64(row))
					return nil
				})
				if err != nil {
					return err
				}
			}
			return collectVictimRIDsByScan(e, field, vals, emit)
		}
		_, err = mergeDeleteIndexByKey(e, access, vi, false, emit, nil)
		return err
	}

	collectStruct := e.tgt.Name
	if access != nil {
		collectStruct = access.Name
	}
	if rs != nil && rs.ridFile != nil {
		ridFile = rs.ridFile
	} else if logged {
		// Read-only collect pass → sort by RID → materialize.
		err := e.phase("collect-rids", "read-only ⋈̸ → sorted RID list → stable storage", collectStruct, func() error {
			srt, emit, err := e.ridSorter()
			if err != nil {
				return err
			}
			if err := collectRIDs(emit); err != nil {
				return err
			}
			it, err := srt.Finish()
			if err != nil {
				return err
			}
			ridFile, err = materializeOn(e, it.Next, record.RIDSize, -1)
			it.Close()
			if err != nil {
				return err
			}
			e.stage(ridFile.file)
			var rowsPayload [8]byte
			binary.LittleEndian.PutUint64(rowsPayload[:], uint64(ridFile.rows))
			if _, err := o.Log.Append(wal.TMaterialized, o.TxID, 0, uint64(ridFile.file), rowsPayload[:]); err != nil {
				return err
			}
			return o.Log.Flush()
		})
		if err != nil {
			return err
		}
	}

	// An unlogged run gathers its RID list while it finds the victims: into
	// the hash method's in-memory set, or an external sorter whose sorted
	// output finishRIDs hands to the heap pass.
	var gather func(record.RID) error
	var ridSorter *xsort.Sorter
	if !logged {
		if method == Hash {
			ridSet = make(map[record.RID]struct{}, len(values))
			gather = func(rid record.RID) error {
				ridSet[rid] = struct{}{}
				return nil
			}
		} else {
			var err error
			if ridSorter, gather, err = e.ridSorter(); err != nil {
				return phaseErr("collect-rids", collectStruct, err)
			}
		}
	}
	finishRIDs := func() error {
		if ridSorter == nil {
			return nil
		}
		it, err := ridSorter.Finish()
		if err != nil {
			return err
		}
		ridIter = it.Next
		return nil
	}

	// Destructive pass on the access index.
	if access != nil && !e.skip(access.Tree.ID()) {
		_, err := e.pass(passJob{
			phase:  "access-pass",
			name:   access.Name,
			detail: fmt.Sprintf("⋈̸[merge] %s (by key)", access.Name),
			file:   access.Tree.ID(),
			kind:   1,
			flush:  access.Tree.Flush,
			run: func(ce *execCtx) (int64, error) {
				vi, err := victimIter()
				if err != nil {
					return 0, err
				}
				var startKey []byte
				if from := resumeFrom(rs, access.Tree.ID()); from > 0 {
					vi, startKey, err = skipRows(vi, uint64(from))
					if err != nil {
						return 0, err
					}
					ce.applied = from // keep checkpoint progress absolute
				}
				del, err := mergeDeleteIndexByKey(ce, access, vi, true, gather, startKey)
				if err != nil {
					return del, err
				}
				return del, access.Tree.RebuildUpper(o.Reorganize)
			},
		})
		if err != nil {
			return err
		}
		if err := finishRIDs(); err != nil {
			return phaseErr("access-pass", access.Name, err)
		}
	}

	if access == nil && !logged {
		// Victims located by table scan: RIDs arrive already sorted.
		err := e.phase("collect-rids", "table scan → RID list", e.tgt.Name, func() error {
			if err := collectRIDs(gather); err != nil {
				return err
			}
			return finishRIDs()
		})
		if err != nil {
			return err
		}
	}
	if logged && method == Hash {
		// Build the RID hash from the materialized list.
		ridSet = make(map[record.RID]struct{})
		if err := ridFile.iterate(0, func(row []byte) error {
			ridSet[record.GetRID(row)] = struct{}{}
			return nil
		}); err != nil {
			return phaseErr("collect-rids", e.tgt.Name, err)
		}
	}

	// ---- Phase 2a (logged): extraction pass — materialize the ⟨key,RID⟩
	// list of every remaining index before any record dies.
	keyFiles := make(map[sim.FileID]*rowFile)
	if logged && method != Hash && len(rest) > 0 {
		if rs != nil && len(rs.keyFiles) == len(rest) {
			keyFiles = rs.keyFiles
		} else {
			// Extract into per-index sorters, then materialize the
			// *sorted* lists — the paper's "results of the join
			// variants should be materialized to stable storage".
			err := e.phase("extract", fmt.Sprintf("π ⟨key,RID⟩ for %d indexes → sorted, stable storage", len(rest)), e.tgt.Name, func() error {
				sorters, err := e.keySorters(rest)
				if err != nil {
					return err
				}
				it, err := ridFile.iterator(0)
				if err != nil {
					return err
				}
				if _, err := heapPassSortedRIDs(e, it, false, e.extract(rest, sorters.add)); err != nil {
					return err
				}
				for _, ix := range rest {
					sit, err := sorters[ix.Tree.ID()].Finish()
					if err != nil {
						return err
					}
					kf, err := materializeOn(e, sit.Next, ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
					sit.Close()
					if err != nil {
						return err
					}
					e.stage(kf.file)
					keyFiles[ix.Tree.ID()] = kf
					var rowsPayload [8]byte
					binary.LittleEndian.PutUint64(rowsPayload[:], uint64(kf.rows))
					if _, err := o.Log.Append(wal.TMaterialized, o.TxID,
						uint64(ix.Tree.ID()), uint64(kf.file), rowsPayload[:]); err != nil {
						return err
					}
				}
				return o.Log.Flush()
			})
			if err != nil {
				return err
			}
		}
	}

	// ---- Phase 2b: delete from the heap.
	var sorters keySorters // unlogged sort/merge
	// A partitioned heap runs one pass per victim partition (possibly as a
	// sched DAG) instead of the single merge below. The hash method keeps
	// its one-scan-probes-all shape, and an unlogged run that must extract
	// keys inline stays serial too: its sorters and key files are shared
	// across the whole stream.
	partedHeap := len(e.tgt.Heap.Parts()) > 1 && method != Hash && (logged || len(rest) == 0)
	if partedHeap {
		src := ridIter
		if logged {
			it, ierr := ridFile.iterator(0)
			if ierr != nil {
				return phaseErr("heap-pass", e.tgt.Name, ierr)
			}
			src = it
		}
		if err := e.partitionedHeapPass(src, method, rs, maxWorkers); err != nil {
			return err
		}
	} else if !e.skip(e.tgt.Heap.ID()) {
		del, err := e.pass(passJob{
			phase:  "heap-pass",
			name:   e.tgt.Name,
			detail: fmt.Sprintf("⋈̸[%s] %s (by RID)", method, e.tgt.Name),
			file:   e.tgt.Heap.ID(),
			kind:   0,
			flush:  e.tgt.Heap.Flush,
			run: func(ce *execCtx) (int64, error) {
				if method == Hash {
					return heapDeleteByRIDProbe(ce, ridSet)
				}
				if logged {
					from := resumeFrom(rs, e.tgt.Heap.ID())
					it, err := ridFile.iterator(from)
					if err != nil {
						return 0, err
					}
					ce.applied = from // keep checkpoint progress absolute
					return heapPassSortedRIDs(ce, it, true, nil)
				}
				// Single pass: extract keys for the remaining indexes and
				// delete in one go.
				sink := func(ix *IndexRef, row []byte) error {
					return keyFiles[ix.Tree.ID()].append(row)
				}
				if method == HashPartition {
					for _, ix := range rest {
						kf, err := newRowFileOn(e.disk(), ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
						if err != nil {
							return 0, err
						}
						keyFiles[ix.Tree.ID()] = kf
					}
				} else {
					var err error
					if sorters, err = e.keySorters(rest); err != nil {
						return 0, err
					}
					sink = sorters.add
				}
				return heapPassSortedRIDs(ce, ridIter, true, e.extract(rest, sink))
			},
		})
		if err != nil {
			return err
		}
		stats.Deleted = del
	}

	// For HashPartition (unlogged), seal the key files written above.
	if method == HashPartition && !logged {
		for _, kf := range keyFiles {
			if err := kf.seal(); err != nil {
				return phaseErr("heap-pass", e.tgt.Name, err)
			}
		}
	}

	// Parallel sort/merge (unlogged): the per-index sorters were filled
	// during the heap pass but their spill and in-memory state lives on the
	// system device, so a concurrent pass draining them would contend for
	// that arm. Stage each sorted key list onto its index's device now,
	// serially — the same declustering the logged protocol gets for free
	// from its materialization pass.
	if e.parWorkers > 1 && method == SortMerge && !logged {
		err := e.phase("stage-keys", fmt.Sprintf("decluster %d sorted key lists onto index devices", len(rest)), e.tgt.Name, func() error {
			for _, ix := range rest {
				srt := sorters[ix.Tree.ID()]
				if srt == nil || e.skip(ix.Tree.ID()) {
					continue
				}
				it, err := srt.Finish()
				if err != nil {
					return err
				}
				kf, err := materializeOn(e, it.Next, ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
				it.Close()
				if err != nil {
					return err
				}
				keyFiles[ix.Tree.ID()] = kf
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The table and every unique index that has been processed so far is
	// durable; remaining unique indexes are handled first below. Signal
	// "critical done" once the last unique structure completes.
	criticalLeft := 0
	for _, ix := range rest {
		if ix.Unique {
			criticalLeft++
		}
	}
	signalCritical := func() {
		if criticalLeft == 0 && e.opts.OnCriticalDone != nil {
			e.opts.OnCriticalDone()
			e.opts.OnCriticalDone = nil
		}
	}
	signalCritical()

	// ---- Phase 3: one ⋈̸ per remaining index, unique-first, fanned out
	// over the device array when the plan is parallel.
	var jobs []passJob
	for _, ix := range rest {
		if e.skip(ix.Tree.ID()) {
			if ix.Unique {
				criticalLeft--
			}
			signalCritical()
			continue
		}
		var parts int
		jobs = append(jobs, passJob{
			phase:  "index-pass",
			name:   ix.Name,
			detail: fmt.Sprintf("⋈̸[%s] %s (by key)", method, ix.Name),
			tgt:    e.tgt,
			file:   ix.Tree.ID(),
			kind:   1,
			flush:  ix.Tree.Flush,
			run: func(ce *execCtx) (del int64, err error) {
				switch method {
				case Hash:
					del, err = indexDeleteByRIDProbe(ce, ix, ridSet)
				case HashPartition:
					del, parts, err = indexDeletePartitioned(ce, ix, keyFiles[ix.Tree.ID()])
				default: // SortMerge: a materialized key list, or the unlogged sorter
					var rows rowIter
					var startKey []byte
					if kf := keyFiles[ix.Tree.ID()]; kf != nil {
						from := resumeFrom(rs, ix.Tree.ID())
						if rows, err = kf.iterator(from); err != nil {
							return 0, err
						}
						if from > 0 {
							if rows, startKey, err = peekFirst(rows, ix.Tree.KeyLen()); err != nil {
								return 0, err
							}
							ce.applied = from // keep checkpoint progress absolute
						}
					} else {
						it, err := sorters[ix.Tree.ID()].Finish()
						if err != nil {
							return 0, err
						}
						rows = it.Next
					}
					del, err = mergeDeleteIndexByFullKey(ce, ix, rows, startKey)
				}
				if err != nil {
					return del, err
				}
				return del, ix.Tree.RebuildUpper(o.Reorganize)
			},
			done: func(int64) {
				if parts > stats.Partitions {
					stats.Partitions = parts
				}
				if ix.Unique {
					criticalLeft--
				}
				signalCritical()
			},
		})
	}
	sc, err := e.fanOut(jobs, e.parWorkers)
	if err != nil {
		return err
	}
	stats.Schedule = sc

	// Drop the intermediate files of an unlogged run (a logged run's files
	// are staged and dropped once its commit record is durable).
	if !logged {
		for _, kf := range keyFiles {
			if err := kf.drop(); err != nil {
				return phaseErr("cleanup", e.tgt.Name, err)
			}
		}
	}
	return nil
}

// ridSorter returns an external sorter for a RID list and the emit that
// feeds it.
func (e *execCtx) ridSorter() (*xsort.Sorter, func(record.RID) error, error) {
	srt, err := xsort.New(e.disk(), record.RIDSize, e.opts.Memory, nil)
	if err != nil {
		return nil, nil, err
	}
	var row [record.RIDSize]byte
	return srt, func(rid record.RID) error {
		record.PutRID(row[:], rid)
		return srt.Add(row[:])
	}, nil
}

// keySorters holds one external sorter of ⟨key,RID⟩ rows per remaining
// index.
type keySorters map[sim.FileID]*xsort.Sorter

func (e *execCtx) keySorters(rest []*IndexRef) (keySorters, error) {
	s := make(keySorters, len(rest))
	for _, ix := range rest {
		srt, err := xsort.New(e.disk(), ix.Tree.KeyLen()+record.RIDSize, e.opts.Memory, nil)
		if err != nil {
			return nil, err
		}
		s[ix.Tree.ID()] = srt
	}
	return s, nil
}

func (s keySorters) add(ix *IndexRef, row []byte) error { return s[ix.Tree.ID()].Add(row) }

// extract returns the heap-pass callback that projects each victim record
// onto one ⟨key,RID⟩ row per remaining index and hands it to sink (the π of
// Figure 3). It is nil when there is nothing to extract.
func (e *execCtx) extract(rest []*IndexRef, sink func(ix *IndexRef, row []byte) error) func(record.RID, []byte) error {
	if len(rest) == 0 {
		return nil
	}
	return func(rid record.RID, rec []byte) error {
		for _, ix := range rest {
			row := make([]byte, ix.Tree.KeyLen()+record.RIDSize)
			keyenc.PutInt64(row, e.tgt.Schema.Field(rec, ix.Field))
			record.PutRID(row[ix.Tree.KeyLen():], rid)
			if err := sink(ix, row); err != nil {
				return err
			}
		}
		return nil
	}
}

// skipRows advances an iterator n rows and returns it along with the first
// remaining row's 8-byte key prefix (nil when exhausted).
func skipRows(it rowIter, n uint64) (rowIter, []byte, error) {
	for i := uint64(0); i < n; i++ {
		if _, ok, err := it(); err != nil || !ok {
			return it, nil, err
		}
	}
	return peekFirst(it, keyenc.Int64Width)
}

// peekFirst pulls one row, remembers its key prefix, and returns an
// iterator that replays it first.
func peekFirst(it rowIter, keyLen int) (rowIter, []byte, error) {
	row, ok, err := it()
	if err != nil || !ok {
		return it, nil, err
	}
	saved := append([]byte(nil), row...)
	replayed := false
	wrapped := func() ([]byte, bool, error) {
		if !replayed {
			replayed = true
			return saved, true, nil
		}
		return it()
	}
	key := append([]byte(nil), saved[:keyLen]...)
	if keyLen > keyenc.Int64Width {
		key = key[:keyenc.Int64Width]
	}
	return wrapped, key, nil
}

// resumeFrom returns the checkpointed progress for a structure (0 outside
// recovery). It consults the full active-structure map, so progress survives
// even when several structures were in flight at the crash (parallel mode).
func resumeFrom(rs *resumeState, file sim.FileID) int64 {
	if rs == nil {
		return 0
	}
	p, ok := rs.st.ProgressOf(uint64(file))
	if !ok {
		return 0
	}
	return int64(p)
}
