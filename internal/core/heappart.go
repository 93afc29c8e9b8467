// Partitioned heap pass: when the target table's heap is split into
// partitions, phase 2b's single skip-sequential merge becomes one merge per
// partition. The statement's sorted RID list is partition-tagged (the
// partition ordinal lives in the high page bits, so RID order is
// partition-major), which makes the split a single sequential pass; each
// per-partition list then drives an independent ⋈̸ against its own heap
// file. The passes touch disjoint files, so they are one fan-out of the
// pass runner (parallel.go), exactly like the phase-3 index passes: inline
// when serial, a sched DAG with device exclusivity when parallel.
//
// Two properties fall out of the per-partition structure:
//
//   - WAL progress is tracked per partition file (TStructStart /
//     TCheckpoint / TStructDone each carry the partition's file ID), so a
//     crash resumes exactly the partitions still open and skips finished
//     ones. Partition 0 shares the table's heap ID, keeping recovery's
//     "which statement owns this heap" match unchanged.
//   - A range-partitioned delete whose victim list covers a whole
//     partition skips the merge entirely and truncates the partition's
//     file — the metadata-only fast path a whole-partition drop deserves.
package core

import (
	"fmt"

	"bulkdel/internal/heap"
	"bulkdel/internal/record"
)

// splitRIDsByPart routes the sorted, partition-tagged RID stream into one
// row file per partition holding raw (untagged) RIDs — the page numbers a
// partition's own editor understands. When the passes will run in
// parallel, each list is staged on its partition's device so a pass never
// touches another pass's arm. Partitions with no victims get no file.
func (e *execCtx) splitRIDsByPart(src rowIter, par bool) ([]*rowFile, []int64, error) {
	disk := e.disk()
	parts := e.tgt.Heap.Parts()
	files := make([]*rowFile, len(parts))
	counts := make([]int64, len(parts))
	var raw [record.RIDSize]byte
	for {
		row, ok, err := src()
		if err != nil {
			return files, counts, err
		}
		if !ok {
			break
		}
		rid := record.GetRID(row)
		pi, page := heap.SplitPage(rid.Page)
		if pi >= len(parts) {
			return files, counts, fmt.Errorf("core: RID %s names partition %d of %d", rid, pi, len(parts))
		}
		if files[pi] == nil {
			dev := -1
			if par {
				dev = disk.DeviceOf(parts[pi].ID())
			}
			rf, err := newRowFileOn(disk, record.RIDSize, dev)
			if err != nil {
				return files, counts, err
			}
			files[pi] = rf
		}
		record.PutRID(raw[:], record.RID{Page: page, Slot: rid.Slot})
		if err := files[pi].append(raw[:]); err != nil {
			return files, counts, err
		}
		counts[pi]++
	}
	for _, rf := range files {
		if rf != nil {
			if err := rf.seal(); err != nil {
				return files, counts, err
			}
		}
	}
	return files, counts, nil
}

// partitionPass is the ⋈̸ of one partition, running on a child context
// whose target heap is the partition file (so checkpoints and page edits
// address the partition directly). When the victim list covers the whole
// partition the data pages are dropped by truncation instead of being
// merged record by record; count > 0 guards the empty partition, and
// from > 0 (a mid-partition checkpoint) forces the merge so resumed work
// replays exactly what the first attempt was doing.
func partitionPass(ce *execCtx, part *heap.File, rids *rowFile, count, from int64) (int64, error) {
	if from == 0 && count > 0 && count == part.Count() {
		// TruncateWith keeps the metadata-only drop when snapshot reads are
		// off; with MVCC armed it retains every record before releasing the
		// pages — unconditionally, because a reader may register a snapshot
		// at any point before the statement's commit epoch is stamped and is
		// then entitled to these rows.
		if err := part.TruncateWith(ce.tgt.Retain); err != nil {
			return 0, err
		}
		if TestHookPostTruncate != nil {
			TestHookPostTruncate()
		}
		return count, nil
	}
	it, err := rids.iterator(from)
	if err != nil {
		return 0, err
	}
	ce.applied = from // keep checkpoint progress absolute
	return heapPassSortedRIDs(ce, it, true, nil)
}

// partitionedHeapPass executes phase 2b over a partitioned heap: split the
// RID stream, then fan out one pass per victim partition, at most
// maxWorkers at once. rs carries recovery positions (recovery replays
// serially, so rs != nil implies maxWorkers == 1).
func (e *execCtx) partitionedHeapPass(src rowIter, method Method,
	rs *resumeState, maxWorkers int) error {

	parts := e.tgt.Heap.Parts()
	var files []*rowFile
	var counts []int64
	err := e.phase("heap-split", fmt.Sprintf("route sorted RID list into %d partition lists", len(parts)), e.tgt.Name, func() error {
		var err error
		files, counts, err = e.splitRIDsByPart(src, maxWorkers > 1)
		return err
	})
	if err != nil {
		return err
	}

	var jobs []passJob
	for pi, part := range parts {
		if files[pi] == nil || e.skip(part.ID()) {
			continue
		}
		tgt := *e.tgt
		tgt.Heap = part
		retagRetain(&tgt, pi)
		rids, count, from := files[pi], counts[pi], resumeFrom(rs, part.ID())
		name := PartName(e.tgt.Name, pi)
		jobs = append(jobs, passJob{
			phase:  "heap-pass",
			name:   name,
			detail: fmt.Sprintf("⋈̸[%s] %s (by RID)", method, name),
			tgt:    &tgt,
			file:   part.ID(),
			kind:   0,
			flush:  part.Flush,
			run: func(ce *execCtx) (int64, error) {
				return partitionPass(ce, part, rids, count, from)
			},
			done: func(del int64) { e.stats.Deleted += del },
		})
	}
	sc, err := e.fanOut(jobs, maxWorkers)
	if err != nil {
		return err
	}
	e.stats.HeapSchedule = sc
	return dropPartFiles(files)
}

// retagRetain rebinds a per-partition child target's Retain hook so the
// version store receives table-level (partition-tagged) RIDs even though
// the child pass addresses the partition file with raw page numbers.
func retagRetain(tgt *Target, pi int) {
	if base := tgt.Retain; base != nil {
		tgt.Retain = func(rid record.RID, rec []byte) {
			base(record.RID{Page: heap.TagPage(pi, rid.Page), Slot: rid.Slot}, rec)
		}
	}
}

// dropPartFiles releases the per-partition RID lists (nil entries are
// partitions that had no victims).
func dropPartFiles(files []*rowFile) error {
	for _, rf := range files {
		if rf == nil {
			continue
		}
		if err := rf.drop(); err != nil {
			return phaseErr("cleanup", "partition RID lists", err)
		}
	}
	return nil
}
