package core

import (
	"fmt"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/xsort"
)

// UpdateStats reports one bulk update execution.
type UpdateStats struct {
	Updated      int64
	Victims      int
	EntriesMoved int64 // index entries deleted + reinserted
	Elapsed      time.Duration
}

// ExecuteUpdate runs
//
//	UPDATE tgt SET setField = transform(setField) WHERE predField IN (values)
//
// vertically, the way the paper's introduction sketches for "increasing the
// salary of above-average Employees": the statement "involves carrying out
// a bulk delete (and bulk insert) on the Emp.salary index". Phases:
//
//  1. the victims are located through the access index on predField (or a
//     table scan), yielding a RID list sorted by physical position;
//  2. one pass over the table updates the records in place (records are
//     fixed-width, so they never move) and projects the ⟨old key, RID⟩ and
//     ⟨new key, RID⟩ lists for every index over setField;
//  3. each such index gets a sort/merge bulk delete of the old entries
//     followed by a bulk insert of the new ones (sorted, so the inserts
//     walk the tree in key order). Indexes over other attributes are
//     untouched — the vertical decomposition makes that free.
//
// Updates are not WAL-protected; the paper's recovery protocol covers bulk
// deletes only, and extending it to updates is listed as future work in
// DESIGN.md.
func ExecuteUpdate(tgt *Target, predField int, values []int64, setField int,
	transform func(int64) int64, opts Options) (*UpdateStats, error) {

	o := opts.withDefaults()
	if predField < 0 || predField >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: predicate field %d out of range", predField)
	}
	if setField < 0 || setField >= tgt.Schema.NumFields {
		return nil, fmt.Errorf("core: set field %d out of range", setField)
	}
	if transform == nil {
		return nil, fmt.Errorf("core: nil transform")
	}
	if o.Log != nil {
		return nil, fmt.Errorf("core: bulk updates do not support WAL logging yet")
	}
	e := &execCtx{tgt: tgt, opts: o}
	stats := &UpdateStats{Victims: len(values)}
	disk := e.disk()
	start := disk.Clock()

	// Indexes over setField need delete+insert; if predField == setField
	// the access index is among them.
	var touched []*IndexRef
	for i := range tgt.Indexes {
		if tgt.Indexes[i].Field == setField {
			touched = append(touched, &tgt.Indexes[i])
		}
	}

	// ---- Phase 1: victim RIDs, sorted by physical position.
	ridSorter, emit, err := e.ridSorter()
	if err != nil {
		return nil, err
	}
	if access := accessIndex(tgt, predField); access != nil {
		vi, err := sortedVictimIter(e, values)
		if err != nil {
			return nil, err
		}
		if _, err := mergeDeleteIndexByKey(e, access, vi, false, emit, nil); err != nil {
			return nil, err
		}
	} else if err := collectVictimRIDsByScan(e, predField, values, emit); err != nil {
		return nil, err
	}
	ridIt, err := ridSorter.Finish()
	if err != nil {
		return nil, err
	}

	// ---- Phase 2: update records in place, projecting old/new entries.
	oldSorters := make(map[sim.FileID]*xsort.Sorter, len(touched))
	newSorters := make(map[sim.FileID]*xsort.Sorter, len(touched))
	for _, ix := range touched {
		rowSize := ix.Tree.KeyLen() + record.RIDSize
		os, err := xsort.New(disk, rowSize, o.Memory, nil)
		if err != nil {
			return nil, err
		}
		ns, err := xsort.New(disk, rowSize, o.Memory, nil)
		if err != nil {
			return nil, err
		}
		oldSorters[ix.Tree.ID()] = os
		newSorters[ix.Tree.ID()] = ns
	}

	ed, err := tgt.Heap.Edit()
	if err != nil {
		return nil, err
	}
	curPage := sim.InvalidPage
	var sp pageMutView
	for {
		row, ok, err := ridIt.Next()
		if err != nil {
			ed.Close()
			return nil, err
		}
		if !ok {
			break
		}
		rid := record.GetRID(row)
		if rid.Page != curPage {
			s, err := ed.Seek(rid.Page)
			if err != nil {
				ed.Close()
				return nil, err
			}
			curPage = rid.Page
			sp = pageMutView{s: s}
		}
		rec, err := sp.s.Get(int(rid.Slot))
		if err != nil {
			ed.Close()
			return nil, err
		}
		oldVal := tgt.Schema.Field(rec, setField)
		newVal := transform(oldVal)
		if newVal == oldVal {
			continue // no index churn, no write
		}
		for _, ix := range touched {
			rowSize := ix.Tree.KeyLen() + record.RIDSize
			buf := make([]byte, rowSize)
			keyenc.PutInt64(buf, oldVal)
			record.PutRID(buf[ix.Tree.KeyLen():], rid)
			if err := oldSorters[ix.Tree.ID()].Add(buf); err != nil {
				ed.Close()
				return nil, err
			}
			keyenc.PutInt64(buf, newVal)
			if err := newSorters[ix.Tree.ID()].Add(buf); err != nil {
				ed.Close()
				return nil, err
			}
		}
		// In-place mutation: the record is aliased into the pinned page.
		tgt.Schema.SetField(rec, setField, newVal)
		ed.MarkDirty()
		disk.ChargeRecords(1)
		stats.Updated++
	}
	ed.Close()

	// ---- Phase 3: per index over setField, bulk delete the old entries
	// and bulk insert the new ones.
	for _, ix := range touched {
		oit, err := oldSorters[ix.Tree.ID()].Finish()
		if err != nil {
			return nil, err
		}
		del, err := mergeDeleteIndexByFullKey(e, ix, oit.Next, nil)
		if err != nil {
			return nil, err
		}
		stats.EntriesMoved += del
		if err := ix.Tree.RebuildUpper(o.Reorganize); err != nil {
			return nil, err
		}
		nit, err := newSorters[ix.Tree.ID()].Finish()
		if err != nil {
			return nil, err
		}
		for {
			row, ok, err := nit.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			key := row[:ix.Tree.KeyLen()]
			rid := record.GetRID(row[ix.Tree.KeyLen():])
			if err := ix.Tree.Insert(key, rid); err != nil {
				if err == btree.ErrDuplicateKey {
					return nil, fmt.Errorf("core: bulk update violates unique index %s: %w", ix.Name, err)
				}
				return nil, err
			}
			stats.EntriesMoved++
		}
	}
	stats.Elapsed = disk.Clock() - start
	return stats, nil
}

// pageMutView wraps the seeked slotted page for in-place mutation.
type pageMutView struct {
	s interface {
		InUse(int) bool
		Get(int) ([]byte, error)
	}
}

// sortedVictimIter sorts the victim values and returns their iterator.
func sortedVictimIter(e *execCtx, values []int64) (rowIter, error) {
	srt, err := sortVictims(e, values)
	if err != nil {
		return nil, err
	}
	it, err := srt.Finish()
	if err != nil {
		return nil, err
	}
	return it.Next, nil
}
