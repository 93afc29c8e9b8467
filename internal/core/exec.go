package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"bulkdel/internal/btree"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
	"bulkdel/internal/xsort"
)

// rowIter is a pull iterator over fixed-width rows (xsort iterators and row
// files both provide one).
type rowIter func() ([]byte, bool, error)

// execCtx carries the per-run state shared by the pass functions.
type execCtx struct {
	tgt   *Target
	opts  Options
	stats *Stats
	// trace is the statement's span tree (nil when untraced); cur is the
	// currently open phase span, so pass internals can nest sub-spans.
	trace *obs.Trace
	cur   *obs.Span
	// checkpoint state
	sinceCkpt int
	applied   int64 // rows applied to the current structure
	crash     crashCounters
	// parWorkers is the degree of parallelism chosen for phase 3 (1 =
	// serial); scratchDev is the device scratch row files of this context
	// must be created on, so a parallel pass never touches another pass's
	// arm (0 = the system device, the default placement).
	parWorkers int
	scratchDev int
	// staged lists the row files announced in the log, dropped at commit.
	staged []sim.FileID
}

func (e *execCtx) disk() *sim.Disk { return e.tgt.Pool.Disk() }

// span opens a phase span under the trace root (nil when untraced; every
// obs.Span method is nil-safe, so call sites need no guards).
func (e *execCtx) span(name, detail string) *obs.Span {
	// A phase span is also the statement's live-progress phase (nil-safe
	// when the statement runs outside the DB's event log).
	e.opts.Stmt.SetPhase(name)
	if e.trace == nil {
		return nil
	}
	return e.trace.Root().Child(name, detail)
}

// child opens a sub-span of the currently open phase (or a root phase span
// when no phase is open).
func (e *execCtx) child(name, detail string) *obs.Span {
	if e.cur != nil {
		return e.cur.Child(name, detail)
	}
	return e.span(name, detail)
}

// traceSource builds the snapshot source for a statement against tgt.
func traceSource(tgt *Target, log *wal.Log) obs.Source {
	src := obs.Source{Disk: tgt.Pool.Disk(), Pool: tgt.Pool}
	if log != nil {
		src.WALBytes = func() uint64 { return uint64(log.FlushedLSN()) }
	}
	return src
}

// errInjectedCrash is returned by the crash-injection hooks so recovery
// tests can interrupt a run at a precise point.
var errInjectedCrash = fmt.Errorf("core: injected crash")

// ErrCancelled reports that the run observed its context's cancellation at
// a recoverable boundary and stopped. The WAL (when logging) holds every
// record needed to roll the statement forward with Resume; the structures
// are in exactly the state a crash at the same point would leave durable,
// plus idempotent-to-reapply in-memory progress past the last checkpoint.
var ErrCancelled = errors.New("core: statement cancelled")

// checkCancel is the executor's cancel checkpoint. It is called at every
// noteApplied (page-I/O granularity), structure boundary, and phase
// transition; a logged run stops anywhere, an unlogged run only before its
// first destructive pass (enforced by the caller checking cancelPoint at
// the one boundary that is recoverable without a log).
func (e *execCtx) checkCancel() error {
	ctx := e.opts.Ctx
	if ctx == nil || e.opts.Log == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	default:
		return nil
	}
}

// cancelPoint checks the context regardless of logging — for boundaries
// where stopping is safe even without a WAL (nothing modified yet).
func (e *execCtx) cancelPoint() error {
	ctx := e.opts.Ctx
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	default:
		return nil
	}
}

// phaseErr attaches the executing phase and the structure being worked on
// to an error crossing a phase boundary, so BulkDelete's caller learns
// where an I/O fault landed. The cause stays reachable via errors.Is /
// errors.As (e.g. sim.IsCrash, *sim.FaultError).
func phaseErr(phase, structure string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: phase %s on %s: %w", phase, structure, err)
}

// totalApplied / structsCompleted drive the test-only crash injection.
type crashCounters struct {
	applied int
	structs int
}

func (e *execCtx) maybeCrashApplied() error {
	if e.opts.failAfterApplied > 0 {
		e.crash.applied++
		if e.crash.applied >= e.opts.failAfterApplied {
			return errInjectedCrash
		}
	}
	return nil
}

func (e *execCtx) maybeCrashStruct() error {
	if e.opts.failAfterStructs > 0 {
		e.crash.structs++
		if e.crash.structs >= e.opts.failAfterStructs {
			return errInjectedCrash
		}
	}
	return nil
}

// structStart logs the beginning of a structure pass.
func (e *execCtx) structStart(file sim.FileID, kind uint64) error {
	e.sinceCkpt = 0
	e.applied = 0
	if e.opts.Log == nil {
		return nil
	}
	if err := e.checkCancel(); err != nil {
		return err
	}
	if _, err := e.opts.Log.Append(wal.TStructStart, e.opts.TxID, uint64(file), kind, nil); err != nil {
		return err
	}
	e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("struct-start file=%d", file))
	return e.opts.Log.Flush()
}

// noteApplied counts one input row applied to the structure and writes a
// checkpoint when due. flush persists the structure's dirty pages; the
// paper requires flushing pages before the checkpoint record so recovery
// can trust the logged progress.
func (e *execCtx) noteApplied(file sim.FileID, flush func() error) error {
	e.applied++
	if err := e.maybeCrashApplied(); err != nil {
		return err
	}
	if err := e.checkCancel(); err != nil {
		return err
	}
	if e.opts.Log == nil {
		return nil
	}
	e.sinceCkpt++
	if e.sinceCkpt < e.opts.CheckpointRows {
		return nil
	}
	e.sinceCkpt = 0
	if err := flush(); err != nil {
		return err
	}
	if _, err := e.opts.Log.Append(wal.TCheckpoint, e.opts.TxID, uint64(file), uint64(e.applied), nil); err != nil {
		return err
	}
	e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("checkpoint file=%d applied=%d", file, e.applied))
	return e.opts.Log.Flush()
}

// structDone flushes the structure and logs its completion, then notifies
// the engine so it can apply side-files and reopen gates.
func (e *execCtx) structDone(file sim.FileID, flush func() error) error {
	if e.opts.Log != nil {
		if err := flush(); err != nil {
			return err
		}
		if _, err := e.opts.Log.Append(wal.TStructDone, e.opts.TxID, uint64(file), 0, nil); err != nil {
			return err
		}
		e.opts.Stmt.Event(obs.EvWAL, fmt.Sprintf("struct-done file=%d", file))
		if err := e.opts.Log.Flush(); err != nil {
			return err
		}
	}
	if e.opts.OnStructureDone != nil {
		e.opts.OnStructureDone(file)
	}
	if err := e.maybeCrashStruct(); err != nil {
		return err
	}
	return e.checkCancel()
}

// skip reports whether recovery already finished this structure.
func (e *execCtx) skip(file sim.FileID) bool {
	return e.opts.SkipStructures != nil && e.opts.SkipStructures[file]
}

// undeletable reports whether a concurrent transaction protected the entry.
func (e *execCtx) undeletable(key []byte, rid record.RID) bool {
	return e.opts.Undeletable != nil && e.opts.Undeletable.Contains(key, rid)
}

// sortVictims sorts the victim values and returns them as canonical 8-byte
// order-preserving keys.
func sortVictims(e *execCtx, values []int64) (*xsort.Sorter, error) {
	srt, err := xsort.New(e.disk(), keyenc.Int64Width, e.opts.Memory, nil)
	if err != nil {
		return nil, err
	}
	var row [keyenc.Int64Width]byte
	for _, v := range values {
		keyenc.PutInt64(row[:], v)
		if err := srt.Add(row[:]); err != nil {
			return nil, err
		}
	}
	return srt, nil
}

// mergeDeleteIndexByKey merges the sorted 8-byte victim keys with the leaf
// chain of the access index (the first ⋈̸ of every plan). Matching entries
// are deleted when del is true (read-only collect pass otherwise) and their
// RIDs handed to emit. startVictim skips a victim prefix on recovery; when
// it is positive, the leaf walk starts at the leaf covering the first
// remaining victim instead of the leftmost leaf.
func mergeDeleteIndexByKey(e *execCtx, ix *IndexRef, victims rowIter, del bool,
	emit func(record.RID) error, startKey []byte) (int64, error) {

	v, ok, err := victims()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	var cur *btree.LeafCursor
	if startKey != nil {
		cur, err = ix.Tree.EditLeavesFrom(padKey(startKey, ix.Tree.KeyLen()))
	} else {
		cur, err = ix.Tree.EditLeaves()
	}
	if err != nil {
		return 0, err
	}
	defer cur.Close()

	var deleted int64
	flush := func() error { return ix.Tree.Flush() }
	for {
		more, err := cur.NextLeaf()
		if err != nil {
			return deleted, err
		}
		if !more {
			break
		}
		e.opts.Stmt.AddPages(1)
		n, err := cur.Count()
		if err != nil {
			return deleted, err
		}
		for i := 0; i < n; {
			key, err := cur.Key(i)
			if err != nil {
				return deleted, err
			}
			e.disk().ChargeCompares(1)
			c := bytes.Compare(key[:keyenc.Int64Width], v)
			switch {
			case c < 0:
				i++
			case c > 0:
				// Advance the victim list; the current victim has
				// no (more) matches.
				if err := e.noteApplied(ix.Tree.ID(), flush); err != nil {
					return deleted, err
				}
				v, ok, err = victims()
				if err != nil {
					return deleted, err
				}
				if !ok {
					return deleted, nil
				}
			default:
				rid, err := cur.RID(i)
				if err != nil {
					return deleted, err
				}
				if e.undeletable(key, rid) {
					i++
					continue
				}
				if emit != nil {
					if err := emit(rid); err != nil {
						return deleted, err
					}
				}
				if del {
					if err := cur.Delete(i); err != nil {
						return deleted, err
					}
					n--
				} else {
					i++
				}
				deleted++
			}
		}
	}
	return deleted, nil
}

// padKey widens an 8-byte canonical key to the index's key length.
func padKey(k []byte, keyLen int) []byte {
	if len(k) == keyLen {
		return k
	}
	out := make([]byte, keyLen)
	copy(out, k)
	return out
}

// mergeDeleteIndexByFullKey merges sorted ⟨key ‖ RID⟩ rows (width = index
// key length + RIDSize) with the leaf chain, deleting exact entries — the
// per-index ⋈̸ of the sort/merge plan (Figure 3). startRow resumes after a
// checkpoint.
func mergeDeleteIndexByFullKey(e *execCtx, ix *IndexRef, rows rowIter, startKey []byte) (int64, error) {
	v, ok, err := rows()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	var cur *btree.LeafCursor
	if startKey != nil {
		cur, err = ix.Tree.EditLeavesFrom(padKey(startKey, ix.Tree.KeyLen()))
	} else {
		cur, err = ix.Tree.EditLeaves()
	}
	if err != nil {
		return 0, err
	}
	defer cur.Close()

	var deleted int64
	flush := func() error { return ix.Tree.Flush() }
	for {
		more, err := cur.NextLeaf()
		if err != nil {
			return deleted, err
		}
		if !more {
			break
		}
		e.opts.Stmt.AddPages(1)
		n, err := cur.Count()
		if err != nil {
			return deleted, err
		}
		for i := 0; i < n; {
			fk, err := cur.FullKey(i)
			if err != nil {
				return deleted, err
			}
			e.disk().ChargeCompares(1)
			c := bytes.Compare(fk, v)
			switch {
			case c < 0:
				i++
			case c > 0:
				if err := e.noteApplied(ix.Tree.ID(), flush); err != nil {
					return deleted, err
				}
				v, ok, err = rows()
				if err != nil {
					return deleted, err
				}
				if !ok {
					return deleted, nil
				}
			default:
				if e.undeletable(fk[:ix.Tree.KeyLen()], record.GetRID(fk[ix.Tree.KeyLen():])) {
					i++
					continue
				}
				if err := cur.Delete(i); err != nil {
					return deleted, err
				}
				n--
				deleted++
				// The exact entry matched; move to the next victim.
				if err := e.noteApplied(ix.Tree.ID(), flush); err != nil {
					return deleted, err
				}
				v, ok, err = rows()
				if err != nil {
					return deleted, err
				}
				if !ok {
					return deleted, nil
				}
			}
		}
	}
	return deleted, nil
}

// TestHookMidHeapPass, when set, is invoked after each slot deletion of a
// sort/merge heap pass — a point where the statement holds its exclusive
// table lock and a pinned heap page but no latch or pool mutex, so
// concurrent snapshot readers are free to run. Tests use it to park a bulk
// delete mid-heap-pass and demonstrate reads proceeding around it. Never
// set outside tests.
var TestHookMidHeapPass func()

// TestHookPostTruncate, when set, is invoked right after a whole-partition
// truncate inside the heap pass — inside the window where the partition's
// pages are already released but the statement's commit epoch is not yet
// stamped. Tests use it to register a snapshot in exactly that window and
// prove the truncated rows were retained for it. Never set outside tests.
var TestHookPostTruncate func()

// heapPassSortedRIDs walks the heap in the physical order of the sorted RID
// rows (skip-sequential merge, the ⋈̸ with R of Figure 3). When extract is
// non-nil each victim record is handed over before deletion; when del is
// false the pass is read-only (the logged extraction pass).
func heapPassSortedRIDs(e *execCtx, rids rowIter, del bool,
	extract func(rid record.RID, rec []byte) error) (int64, error) {

	ed, err := e.tgt.Heap.Edit()
	if err != nil {
		return 0, err
	}
	defer ed.Close()
	var deleted int64
	flush := func() error { return e.tgt.Heap.Flush() }
	curPage := sim.InvalidPage
	var sp pageView
	for {
		row, ok, err := rids()
		if err != nil {
			return deleted, err
		}
		if !ok {
			break
		}
		rid := record.GetRID(row)
		if rid.Page != curPage {
			s, err := ed.Seek(rid.Page)
			if err != nil {
				if e.opts.IgnoreMissing && errors.Is(err, heap.ErrPageRange) {
					// The page was released (a resumed run re-walking a
					// truncated partition): the victim is already gone.
					if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
						return deleted, err
					}
					continue
				}
				return deleted, err
			}
			curPage = rid.Page
			sp = pageView{s: s}
			e.opts.Stmt.AddPages(1)
		}
		if !sp.s.InUse(int(rid.Slot)) {
			if e.opts.IgnoreMissing {
				if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
					return deleted, err
				}
				continue
			}
			return deleted, fmt.Errorf("core: victim %s is not a live record", rid)
		}
		if extract != nil {
			rec, err := sp.s.Get(int(rid.Slot))
			if err != nil {
				return deleted, err
			}
			if err := extract(rid, rec); err != nil {
				return deleted, err
			}
		}
		if del {
			// Retain the victim's image before tombstoning so concurrent
			// snapshot readers keep seeing the row. Unconditional when the
			// hook is set: consulting "any snapshot open?" per row would
			// race a reader registering between the check and the delete.
			// The page is already pinned, so the extra Get is free.
			if e.tgt.Retain != nil {
				rec, err := sp.s.Get(int(rid.Slot))
				if err != nil {
					return deleted, err
				}
				e.tgt.Retain(rid, rec)
			}
			if err := ed.DeleteSlot(int(rid.Slot)); err != nil {
				return deleted, err
			}
			deleted++
			e.opts.Stmt.AddRows(1)
			if TestHookMidHeapPass != nil {
				TestHookMidHeapPass()
			}
		}
		if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// pageView wraps the seeked slotted page (kept tiny to avoid importing page
// into signatures).
type pageView struct {
	s interface {
		InUse(int) bool
		Get(int) ([]byte, error)
	}
}

// heapDeleteByRIDProbe scans every heap page once, probing each live record
// against the in-memory RID set — the hash plan's ⋈̸ with R (Figure 4). The
// scan is partition-major (partition 0 of a single-file heap is the whole
// file), probing the tagged form of each position since that is what the
// indexes — and therefore the RID set — carry.
func heapDeleteByRIDProbe(e *execCtx, ridSet map[record.RID]struct{}) (int64, error) {
	var deleted int64
	flush := func() error { return e.tgt.Heap.Flush() }
	for pi, part := range e.tgt.Heap.Parts() {
		err := func() error {
			ed, err := part.EditPages()
			if err != nil {
				return err
			}
			defer ed.Close()
			numPages := sim.PageNo(ed.NumDataPages())
			for pg := sim.PageNo(1); pg <= numPages; pg++ {
				sp, err := ed.Seek(pg)
				if err != nil {
					return err
				}
				e.opts.Stmt.AddPages(1)
				for slot := 0; slot < sp.NumSlots(); slot++ {
					if !sp.InUse(slot) {
						continue
					}
					e.disk().ChargeRecords(1) // hash probe
					tagged := record.RID{Page: heap.TagPage(pi, pg), Slot: uint16(slot)}
					if _, hit := ridSet[tagged]; !hit {
						continue
					}
					if e.tgt.Retain != nil {
						rec, err := sp.Get(slot)
						if err != nil {
							return err
						}
						e.tgt.Retain(tagged, rec)
					}
					if err := ed.DeleteSlot(slot); err != nil {
						return err
					}
					deleted++
					e.opts.Stmt.AddRows(1)
					if err := e.noteApplied(e.tgt.Heap.ID(), flush); err != nil {
						return err
					}
				}
			}
			return nil
		}()
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// indexDeleteByRIDProbe scans the whole leaf chain probing every entry's
// RID against the in-memory set — the hash plan's per-index ⋈̸ with primary
// predicate "by RID" (Figure 4; §2.1 notes that looking up index entries by
// RID "might sound counterintuitive" but pays off exactly here).
func indexDeleteByRIDProbe(e *execCtx, ix *IndexRef, ridSet map[record.RID]struct{}) (int64, error) {
	cur, err := ix.Tree.EditLeaves()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	var deleted int64
	flush := func() error { return ix.Tree.Flush() }
	for {
		more, err := cur.NextLeaf()
		if err != nil {
			return deleted, err
		}
		if !more {
			break
		}
		e.opts.Stmt.AddPages(1)
		n, err := cur.Count()
		if err != nil {
			return deleted, err
		}
		for i := 0; i < n; {
			rid, err := cur.RID(i)
			if err != nil {
				return deleted, err
			}
			e.disk().ChargeRecords(1) // hash probe
			if _, hit := ridSet[rid]; !hit {
				i++
				continue
			}
			key, err := cur.Key(i)
			if err != nil {
				return deleted, err
			}
			if e.undeletable(key, rid) {
				i++
				continue
			}
			if err := cur.Delete(i); err != nil {
				return deleted, err
			}
			n--
			deleted++
			if err := e.noteApplied(ix.Tree.ID(), flush); err != nil {
				return deleted, err
			}
		}
	}
	return deleted, nil
}

// hashOverheadPerEntry approximates the memory cost of one hash-table entry
// (Go map overhead included) for the planner and the partition count.
const hashOverheadPerEntry = 48

// indexDeletePartitioned implements the hash + range-partitioning ⋈̸ of
// Figure 5 for one index: the ⟨key, RID⟩ rows are split into partitions
// small enough for an in-memory hash table using separator keys sampled
// from the index itself ("I_B and I_C can be range partitioned without any
// cost because the index is clustered by the key"), then each partition
// probes only its own leaf range.
func indexDeletePartitioned(e *execCtx, ix *IndexRef, rows *rowFile) (int64, int, error) {
	fkLen := ix.Tree.KeyLen() + record.RIDSize
	need := rows.rows * int64(fkLen+hashOverheadPerEntry)
	k := int(need/int64(e.opts.Memory)) + 1
	if k < 1 {
		k = 1
	}
	boundaries, err := ix.Tree.SeparatorSample(k)
	if err != nil {
		return 0, 0, err
	}
	parts := len(boundaries) + 1

	// Partition pass: route each row by binary search over boundaries.
	partFiles := make([]*rowFile, parts)
	for i := range partFiles {
		pf, err := newRowFileOn(e.disk(), fkLen, e.scratchDev)
		if err != nil {
			return 0, 0, err
		}
		partFiles[i] = pf
	}
	err = rows.iterate(0, func(row []byte) error {
		key := row[:ix.Tree.KeyLen()]
		p := sort.Search(len(boundaries), func(i int) bool {
			return bytes.Compare(boundaries[i], key) > 0
		})
		e.disk().ChargeCompares(4)
		return partFiles[p].append(row)
	})
	if err != nil {
		return 0, 0, err
	}
	for _, pf := range partFiles {
		if err := pf.seal(); err != nil {
			return 0, 0, err
		}
	}

	// Probe pass per partition over its leaf range.
	var deleted int64
	flush := func() error { return ix.Tree.Flush() }
	for p := 0; p < parts; p++ {
		set := make(map[string]struct{})
		err := partFiles[p].iterate(0, func(row []byte) error {
			set[string(row)] = struct{}{}
			return nil
		})
		if err != nil {
			return deleted, parts, err
		}
		if len(set) == 0 {
			continue
		}
		var cur *btree.LeafCursor
		if p == 0 {
			cur, err = ix.Tree.EditLeaves()
		} else {
			cur, err = ix.Tree.EditLeavesFrom(boundaries[p-1])
		}
		if err != nil {
			return deleted, parts, err
		}
		var upper []byte
		if p < len(boundaries) {
			upper = boundaries[p]
		}
	leafLoop:
		for {
			more, err := cur.NextLeaf()
			if err != nil {
				cur.Close()
				return deleted, parts, err
			}
			if !more {
				break
			}
			e.opts.Stmt.AddPages(1)
			n, err := cur.Count()
			if err != nil {
				cur.Close()
				return deleted, parts, err
			}
			// Stop once the whole leaf is beyond this partition.
			if n > 0 && upper != nil {
				first, err := cur.Key(0)
				if err != nil {
					cur.Close()
					return deleted, parts, err
				}
				if bytes.Compare(first, upper) >= 0 {
					break leafLoop
				}
			}
			for i := 0; i < n; {
				fk, err := cur.FullKey(i)
				if err != nil {
					cur.Close()
					return deleted, parts, err
				}
				e.disk().ChargeRecords(1) // hash probe
				if _, hit := set[string(fk)]; !hit {
					i++
					continue
				}
				if e.undeletable(fk[:ix.Tree.KeyLen()], record.GetRID(fk[ix.Tree.KeyLen():])) {
					i++
					continue
				}
				if err := cur.Delete(i); err != nil {
					cur.Close()
					return deleted, parts, err
				}
				n--
				deleted++
				if err := e.noteApplied(ix.Tree.ID(), flush); err != nil {
					cur.Close()
					return deleted, parts, err
				}
			}
		}
		cur.Close()
	}
	for _, pf := range partFiles {
		if err := pf.drop(); err != nil {
			return deleted, parts, err
		}
	}
	return deleted, parts, nil
}

// errFoundMatch stops a read-only probe as soon as one match appears.
var errFoundMatch = fmt.Errorf("core: match found")

// waitOnline blocks a read-only probe until the index is back online. A
// previous statement's §3.1 early release admits readers while its
// non-unique index passes are still rebuilding the trees offline; traversing
// such a tree mid-pass is a data race. Updaters route through the side-file
// instead; read probes have no side-file, so they wait for the gate.
func waitOnline(ix *IndexRef) {
	if ix != nil && ix.Gate != nil {
		ix.Gate.WaitOnline()
	}
}

// AnyKeyMatch reports whether the index holds an entry for any of the
// victim values — a read-only vertical probe (sorted victims merged with
// the leaf chain, stopping at the first hit). It is the paper's "check
// integrity constraints in such a vertical way as early as possible":
// a RESTRICT foreign key runs this against the child's index before any
// structure is modified.
func AnyKeyMatch(tgt *Target, ix *IndexRef, values []int64, memory int) (bool, int64, error) {
	waitOnline(ix)
	o := Options{Memory: memory}
	e := &execCtx{tgt: tgt, opts: o.withDefaults()}
	srt, err := sortVictims(e, values)
	if err != nil {
		return false, 0, err
	}
	it, err := srt.Finish()
	if err != nil {
		return false, 0, err
	}
	var hit int64
	// The probe walks the child's leaf chain while the child table is at
	// most share-locked; the latch keeps concurrent row inserts from
	// splitting leaves under the cursor (the FK-probe race audit test).
	ix.RLock()
	_, err = mergeDeleteIndexByKey(e, ix, it.Next, false, func(rid record.RID) error {
		hit = int64(1)
		return errFoundMatch
	}, nil)
	ix.RUnlock()
	if err == errFoundMatch {
		return true, hit, nil
	}
	if err != nil {
		return false, 0, err
	}
	return false, 0, nil
}

// CountKeyMatches counts the child entries referencing any victim value —
// the cascade planner uses it for reporting.
func CountKeyMatches(tgt *Target, ix *IndexRef, values []int64, memory int) (int64, error) {
	waitOnline(ix)
	o := Options{Memory: memory}
	e := &execCtx{tgt: tgt, opts: o.withDefaults()}
	srt, err := sortVictims(e, values)
	if err != nil {
		return 0, err
	}
	it, err := srt.Finish()
	if err != nil {
		return 0, err
	}
	var n int64
	ix.RLock()
	_, err = mergeDeleteIndexByKey(e, ix, it.Next, false, func(record.RID) error {
		n++
		return nil
	}, nil)
	ix.RUnlock()
	return n, err
}

// CollectVictimFieldValues performs the read-only half of a bulk delete to
// learn which values of other attributes the victims carry: sorted victims
// are merged against the access index (or found by a scan), the resulting
// RID list is sorted, and one skip-sequential heap pass projects the wanted
// fields. Foreign keys declared on attributes other than the delete
// attribute are enforced with these projections — vertically, before any
// structure is modified.
func CollectVictimFieldValues(tgt *Target, field int, values []int64, wantFields []int, memory int) (map[int][]int64, error) {
	o := Options{Memory: memory}
	e := &execCtx{tgt: tgt, opts: o.withDefaults()}
	out := make(map[int][]int64, len(wantFields))
	for _, f := range wantFields {
		if f < 0 || f >= tgt.Schema.NumFields {
			return nil, fmt.Errorf("core: projected field %d out of range", f)
		}
		out[f] = nil
	}
	// RIDs, sorted by physical position.
	ridSorter, emit, err := e.ridSorter()
	if err != nil {
		return nil, err
	}
	if access := accessIndex(tgt, field); access != nil {
		waitOnline(access)
		vi, err := sortedVictimIter(e, values)
		if err != nil {
			return nil, err
		}
		access.RLock()
		_, err = mergeDeleteIndexByKey(e, access, vi, false, emit, nil)
		access.RUnlock()
		if err != nil {
			return nil, err
		}
	} else if err := collectVictimRIDsByScan(e, field, values, emit); err != nil {
		return nil, err
	}
	it, err := ridSorter.Finish()
	if err != nil {
		return nil, err
	}
	_, err = heapPassSortedRIDs(e, it.Next, false, func(_ record.RID, rec []byte) error {
		for _, f := range wantFields {
			out[f] = append(out[f], tgt.Schema.Field(rec, f))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collectVictimRIDsByScan finds the victims with a full table scan when no
// index exists on the delete attribute. The emitted RIDs are already in
// physical order.
func collectVictimRIDsByScan(e *execCtx, field int, values []int64, emit func(record.RID) error) error {
	set := make(map[int64]struct{}, len(values))
	for _, v := range values {
		set[v] = struct{}{}
	}
	return e.tgt.Heap.Scan(func(rid record.RID, rec []byte) error {
		e.disk().ChargeRecords(1)
		if _, hit := set[e.tgt.Schema.Field(rec, field)]; hit {
			return emit(rid)
		}
		return nil
	})
}
