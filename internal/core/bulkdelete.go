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
		err := func() error {
			sp := e.span("materialize-victims", fmt.Sprintf("%d values → stable storage", len(values)))
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
			if err := o.Log.Flush(); err != nil {
				return err
			}
			sp.Finish()
			return nil
		}()
		if err != nil {
			return nil, phaseErr("materialize-victims", tgt.Name, err)
		}
	}

	if err := e.run(field, values, method, access, rest, victimFile, nil); err != nil {
		return stats, err
	}

	if logged {
		err := func() error {
			sp := e.span("wal-commit", "bulk-end + commit records")
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
			sp.Finish()
			return nil
		}()
		if err != nil {
			return stats, phaseErr("wal-commit", tgt.Name, err)
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
	disk := e.disk()

	// Degree of parallelism for phase 3. Recovery replays serially: the
	// roll-forward has per-structure progress to respect and nothing to
	// gain from overlap it could not also get on the original run.
	stats.ParallelRequested = o.Parallel
	workers := 1
	if o.Parallel > 1 && rs == nil {
		workers = chooseParallelRest(e.tgt, rest, o.Parallel)
	}
	e.parWorkers = workers
	par := workers > 1

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
		err := func() error {
			sp := e.span("collect-rids", "read-only ⋈̸ → sorted RID list → stable storage")
			e.cur = sp
			srt, err := xsort.New(disk, record.RIDSize, o.Memory, nil)
			if err != nil {
				return err
			}
			var row [record.RIDSize]byte
			err = collectRIDs(func(rid record.RID) error {
				record.PutRID(row[:], rid)
				return srt.Add(row[:])
			})
			if err != nil {
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
			if err := o.Log.Flush(); err != nil {
				return err
			}
			sp.Finish()
			e.cur = nil
			return nil
		}()
		if err != nil {
			return phaseErr("collect-rids", collectStruct, err)
		}
	}

	// Destructive pass on the access index.
	if access != nil && !e.skip(access.Tree.ID()) {
		err := func() error {
			sp := e.span("access-pass", fmt.Sprintf("⋈̸[merge] %s (by key)", access.Name))
			e.cur = sp
			t0 := disk.Clock()
			if err := e.structStart(access.Tree.ID(), 1); err != nil {
				return err
			}
			vi, err := victimIter()
			if err != nil {
				return err
			}
			var startKey []byte
			if from := resumeFrom(rs, access.Tree.ID()); from > 0 {
				vi, startKey, err = skipRows(vi, uint64(from))
				if err != nil {
					return err
				}
				e.applied = from // keep checkpoint progress absolute
			}
			var emit func(record.RID) error
			if !logged {
				if method == Hash {
					ridSet = make(map[record.RID]struct{}, len(values))
					emit = func(rid record.RID) error {
						ridSet[rid] = struct{}{}
						return nil
					}
				} else {
					srt, err := xsort.New(disk, record.RIDSize, o.Memory, nil)
					if err != nil {
						return err
					}
					var row [record.RIDSize]byte
					emit = func(rid record.RID) error {
						record.PutRID(row[:], rid)
						return srt.Add(row[:])
					}
					// Finished below, after the pass completes.
					e.pendingRIDSorter = srt
				}
			}
			del, err := mergeDeleteIndexByKey(e, access, vi, true, emit, startKey)
			if err != nil {
				return err
			}
			if err := access.Tree.RebuildUpper(o.Reorganize); err != nil {
				return err
			}
			if err := e.structDone(access.Tree.ID(), func() error { return access.Tree.Flush() }); err != nil {
				return err
			}
			sp.Finish()
			e.cur = nil
			ss := StructStats{Name: access.Name, File: access.Tree.ID(), Deleted: del, Elapsed: disk.Clock() - t0}
			ss.fillIO(sp)
			stats.PerStructure = append(stats.PerStructure, ss)
			if e.pendingRIDSorter != nil {
				it, err := e.pendingRIDSorter.Finish()
				if err != nil {
					return err
				}
				ridIter = it.Next
				e.pendingRIDSorter = nil
			}
			return nil
		}()
		if err != nil {
			return phaseErr("access-pass", access.Name, err)
		}
	} else if access != nil && logged {
		// Access index already done on resume; RID list comes from disk.
	}

	if access == nil && !logged {
		// Victims located by table scan: RIDs arrive already sorted.
		err := func() error {
			sp := e.span("collect-rids", "table scan → RID list")
			e.cur = sp
			if method == Hash {
				ridSet = make(map[record.RID]struct{}, len(values))
				if err := collectRIDs(func(rid record.RID) error {
					ridSet[rid] = struct{}{}
					return nil
				}); err != nil {
					return err
				}
			} else {
				srt, err := xsort.New(disk, record.RIDSize, o.Memory, nil)
				if err != nil {
					return err
				}
				var row [record.RIDSize]byte
				if err := collectRIDs(func(rid record.RID) error {
					record.PutRID(row[:], rid)
					return srt.Add(row[:])
				}); err != nil {
					return err
				}
				it, err := srt.Finish()
				if err != nil {
					return err
				}
				ridIter = it.Next
			}
			sp.Finish()
			e.cur = nil
			return nil
		}()
		if err != nil {
			return phaseErr("collect-rids", e.tgt.Name, err)
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
	needExtract := method != Hash && len(rest) > 0
	if logged && needExtract {
		have := rs != nil && len(rs.keyFiles) == len(rest)
		if !have {
			// Extract into per-index sorters, then materialize the
			// *sorted* lists — the paper's "results of the join
			// variants should be materialized to stable storage".
			err := func() error {
				sp := e.span("extract", fmt.Sprintf("π ⟨key,RID⟩ for %d indexes → sorted, stable storage", len(rest)))
				e.cur = sp
				extractSorters := make(map[sim.FileID]*xsort.Sorter, len(rest))
				for _, ix := range rest {
					srt, err := xsort.New(disk, ix.Tree.KeyLen()+record.RIDSize, o.Memory, nil)
					if err != nil {
						return err
					}
					extractSorters[ix.Tree.ID()] = srt
				}
				it, err := ridFile.iterator(0)
				if err != nil {
					return err
				}
				_, err = heapPassSortedRIDs(e, it, false, func(rid record.RID, rec []byte) error {
					return e.extractToSorters(rest, extractSorters, rid, rec)
				})
				if err != nil {
					return err
				}
				for _, ix := range rest {
					sit, err := extractSorters[ix.Tree.ID()].Finish()
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
				if err := o.Log.Flush(); err != nil {
					return err
				}
				sp.Finish()
				e.cur = nil
				return nil
			}()
			if err != nil {
				return phaseErr("extract", e.tgt.Name, err)
			}
		} else {
			keyFiles = rs.keyFiles
		}
	}

	// ---- Phase 2b: delete from the heap.
	sorters := make(map[sim.FileID]*xsort.Sorter) // unlogged sort/merge
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
		heapWorkers := 1
		if o.Parallel > 1 && rs == nil {
			heapWorkers = o.Parallel
		}
		if err := e.partitionedHeapPass(src, method, rs, heapWorkers); err != nil {
			return err
		}
	} else if !e.skip(e.tgt.Heap.ID()) {
		err := func() error {
			sp := e.span("heap-pass", fmt.Sprintf("⋈̸[%s] %s (by RID)", method, e.tgt.Name))
			e.cur = sp
			t0 := disk.Clock()
			if err := e.structStart(e.tgt.Heap.ID(), 0); err != nil {
				return err
			}
			var del int64
			var err error
			if method == Hash {
				del, err = heapDeleteByRIDProbe(e, ridSet)
			} else if logged {
				from := resumeFrom(rs, e.tgt.Heap.ID())
				it, ierr := ridFile.iterator(from)
				if ierr != nil {
					return ierr
				}
				e.applied = from // keep checkpoint progress absolute
				del, err = heapPassSortedRIDs(e, it, true, nil)
			} else {
				// Single pass: extract keys for the remaining indexes and
				// delete in one go.
				for _, ix := range rest {
					srt, serr := xsort.New(disk, ix.Tree.KeyLen()+record.RIDSize, o.Memory, nil)
					if serr != nil {
						return serr
					}
					sorters[ix.Tree.ID()] = srt
				}
				var extract func(record.RID, []byte) error
				if method == HashPartition {
					for _, ix := range rest {
						kf, kerr := newRowFileOn(disk, ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
						if kerr != nil {
							return kerr
						}
						keyFiles[ix.Tree.ID()] = kf
					}
					extract = func(rid record.RID, rec []byte) error {
						return e.extractKeys(rest, keyFiles, rid, rec)
					}
				} else if len(rest) > 0 {
					extract = func(rid record.RID, rec []byte) error {
						return e.extractToSorters(rest, sorters, rid, rec)
					}
				}
				del, err = heapPassSortedRIDs(e, ridIter, true, extract)
			}
			if err != nil {
				return err
			}
			if err := e.structDone(e.tgt.Heap.ID(), func() error { return e.tgt.Heap.Flush() }); err != nil {
				return err
			}
			sp.Finish()
			e.cur = nil
			stats.Deleted = del
			ss := StructStats{Name: e.tgt.Name, File: e.tgt.Heap.ID(), Deleted: del, Elapsed: disk.Clock() - t0}
			ss.fillIO(sp)
			stats.PerStructure = append(stats.PerStructure, ss)
			return nil
		}()
		if err != nil {
			return phaseErr("heap-pass", e.tgt.Name, err)
		}
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
	if par && method == SortMerge && !logged {
		err := func() error {
			sp := e.span("stage-keys", fmt.Sprintf("decluster %d sorted key lists onto index devices", len(rest)))
			e.cur = sp
			for _, ix := range rest {
				srt := sorters[ix.Tree.ID()]
				if srt == nil || e.skip(ix.Tree.ID()) {
					continue
				}
				it, ferr := srt.Finish()
				if ferr != nil {
					return ferr
				}
				kf, merr := materializeOn(e, it.Next, ix.Tree.KeyLen()+record.RIDSize, e.stageDev(ix))
				it.Close()
				if merr != nil {
					return merr
				}
				keyFiles[ix.Tree.ID()] = kf
			}
			sp.Finish()
			e.cur = nil
			return nil
		}()
		if err != nil {
			return phaseErr("stage-keys", e.tgt.Name, err)
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

	// ---- Phase 3: one ⋈̸ per remaining index, unique-first. With a degree
	// of parallelism above one the passes run as a DAG over the device
	// array; otherwise the original serial loop below runs unchanged.
	if par {
		if err := e.runIndexPassesParallel(rest, method, workers, keyFiles, ridSet,
			&criticalLeft, signalCritical); err != nil {
			return err
		}
		if !logged {
			for _, kf := range keyFiles {
				if err := kf.drop(); err != nil {
					return phaseErr("cleanup", e.tgt.Name, err)
				}
			}
		}
		return nil
	}
	for _, ix := range rest {
		if e.skip(ix.Tree.ID()) {
			if ix.Unique {
				criticalLeft--
			}
			signalCritical()
			continue
		}
		perr := func() error {
			sp := e.span("index-pass", fmt.Sprintf("⋈̸[%s] %s (by key)", method, ix.Name))
			e.cur = sp
			t0 := disk.Clock()
			if err := e.structStart(ix.Tree.ID(), 1); err != nil {
				return err
			}
			var del int64
			var err error
			switch method {
			case Hash:
				del, err = indexDeleteByRIDProbe(e, ix, ridSet)
			case HashPartition:
				var p int
				del, p, err = indexDeletePartitioned(e, ix, keyFiles[ix.Tree.ID()])
				if p > stats.Partitions {
					stats.Partitions = p
				}
			default: // SortMerge
				var rows rowIter
				var startKey []byte
				if logged {
					kf := keyFiles[ix.Tree.ID()]
					from := resumeFrom(rs, ix.Tree.ID())
					rows, err = kf.iterator(from)
					if err != nil {
						return err
					}
					if from > 0 {
						rows, startKey, err = peekFirst(rows, ix.Tree.KeyLen())
						if err != nil {
							return err
						}
						e.applied = from // keep checkpoint progress absolute
					}
				} else {
					it, ferr := sorters[ix.Tree.ID()].Finish()
					if ferr != nil {
						return ferr
					}
					rows = it.Next
				}
				del, err = mergeDeleteIndexByFullKey(e, ix, rows, startKey)
			}
			if err != nil {
				return err
			}
			if err := ix.Tree.RebuildUpper(o.Reorganize); err != nil {
				return err
			}
			if err := e.structDone(ix.Tree.ID(), func() error { return ix.Tree.Flush() }); err != nil {
				return err
			}
			sp.Finish()
			e.cur = nil
			ss := StructStats{Name: ix.Name, File: ix.Tree.ID(), Deleted: del, Elapsed: disk.Clock() - t0}
			ss.fillIO(sp)
			stats.PerStructure = append(stats.PerStructure, ss)
			return nil
		}()
		if perr != nil {
			return phaseErr("index-pass", ix.Name, perr)
		}
		if ix.Unique {
			criticalLeft--
		}
		signalCritical()
	}

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

// extractKeys appends one ⟨key,RID⟩ row per remaining index to the key
// files.
func (e *execCtx) extractKeys(rest []*IndexRef, files map[sim.FileID]*rowFile, rid record.RID, rec []byte) error {
	for _, ix := range rest {
		kf := files[ix.Tree.ID()]
		row := make([]byte, ix.Tree.KeyLen()+record.RIDSize)
		keyenc.PutInt64(row, e.tgt.Schema.Field(rec, ix.Field))
		record.PutRID(row[ix.Tree.KeyLen():], rid)
		if err := kf.append(row); err != nil {
			return err
		}
	}
	return nil
}

// extractToSorters feeds one ⟨key,RID⟩ row per remaining index into the
// per-index sorters (the π + sort of Figure 3).
func (e *execCtx) extractToSorters(rest []*IndexRef, sorters map[sim.FileID]*xsort.Sorter, rid record.RID, rec []byte) error {
	for _, ix := range rest {
		row := make([]byte, ix.Tree.KeyLen()+record.RIDSize)
		keyenc.PutInt64(row, e.tgt.Schema.Field(rec, ix.Field))
		record.PutRID(row[ix.Tree.KeyLen():], rid)
		if err := sorters[ix.Tree.ID()].Add(row); err != nil {
			return err
		}
	}
	return nil
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
