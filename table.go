package bulkdel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bulkdel/internal/btree"
	"bulkdel/internal/cc"
	"bulkdel/internal/core"
	"bulkdel/internal/obs"
	"bulkdel/internal/record"
	"bulkdel/internal/sim"
	"bulkdel/internal/table"
)

// IndexOptions describes an index to create.
type IndexOptions struct {
	// Name of the index (unique per table).
	Name string
	// Field is the attribute position the index covers.
	Field int
	// KeyLen widens the stored key (0 = 8 bytes). Wider keys shrink the
	// fan-out and grow the tree.
	KeyLen int
	// Unique enforces key uniqueness; unique indexes are processed first
	// during bulk deletes (the paper's §3.1 requirement).
	Unique bool
	// Clustered declares that the heap is loaded in this attribute's
	// order (the engine does not re-sort existing data).
	Clustered bool
	// Priority ranks application-critical indexes for processing order.
	Priority int
}

// Table is a base table: a name, a schema, the §3 table lock and one
// storage backend. A heap table's store is a heapStore (the paper's heap
// file with B-link-tree indexes and MVCC snapshot state); an LSM table's is
// an lsmStore (see lsm_backend.go). Operations both backends serve go
// through store; heap-only ones reach the heap through Table.heap.
type Table struct {
	db     *DB
	name   string
	schema record.Schema
	// lock is the table's shared instance from the DB's cc.Manager, so
	// ordered multi-table acquisition and the DML entry points contend on
	// one object.
	lock  *cc.TableLock
	store store
	// updMu serializes updater DML (Insert/DeleteRow) against each
	// other. It stands in for the fine-grained page latches a production
	// engine would take; the bulk deleter does not take it — during a
	// concurrent bulk delete it only touches offline index trees, which
	// updaters reach exclusively through their (thread-safe) side-files.
	updMu sync.Mutex
}

// store is what both storage backends serve. Inserts run under the shared
// table lock and updMu, checks under the shared table lock; every other
// method takes the locks it needs.
type store interface {
	insert(fields []int64, direct bool) (RID, error)
	count() int64
	lookup(field int, v int64) ([][]int64, error)
	lookupRange(field int, lo, hi int64) ([][]int64, error)
	scan(fn func(rid RID, fields []int64) error) error
	bulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error)
	deleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error)
	check() error
	flush() error
	explain(field int, m Method, memory int) string
	catalogEntry() catalogTable
}

// heapStore is the heap backend: the table.Table heap, its B-link-tree
// indexes and its MVCC snapshot state.
type heapStore struct {
	tbl *Table
	t   *table.Table
}

// heap returns the table's heap backend, or the error every heap-only
// operation reports on an LSM table. Callers that fall back silently on an
// LSM table assert tbl.store.(*heapStore) instead.
func (tbl *Table) heap() (*heapStore, error) {
	if h, ok := tbl.store.(*heapStore); ok {
		return h, nil
	}
	return nil, fmt.Errorf("bulkdel: table %s is LSM-backed; the operation needs a heap table (RIDs, indexes, MVCC)", tbl.name)
}

// newTable builds a Table around its name and schema; the caller installs
// the store.
func (db *DB) newTable(name string, schema record.Schema) *Table {
	return &Table{db: db, name: name, schema: schema, lock: db.cc.Lock(name)}
}

// Name returns the table name.
func (tbl *Table) Name() string { return tbl.name }

// NumFields returns the number of int64 attributes.
func (tbl *Table) NumFields() int { return tbl.schema.NumFields }

// Count returns the number of live records. On an LSM table this is a
// merged scan (tombstones subtract); a scan error reports -1.
func (tbl *Table) Count() int64 { return tbl.store.count() }

func (h *heapStore) count() int64 { return h.t.Heap.Count() }

// CreateIndex builds an index over the current contents (scan + external
// sort + bottom-up bulk load). On a multi-device array (Options.Devices)
// the new tree is placed by the device policy (internal/place): the
// least-loaded data device the table does not already occupy, so
// independent ⋈̸ passes of a parallel bulk delete can overlap on separate
// spindles.
func (tbl *Table) CreateIndex(opts IndexOptions) error {
	// Structural claim: the build scans the heap and installs the new tree,
	// and no reader — snapshot readers included — may observe the table
	// while the scan races updaters.
	return tbl.structural("create-index", func(h *heapStore, _ *obs.Stmt) error {
		ix, err := h.t.CreateIndex(table.IndexDef{
			Name: opts.Name, Field: opts.Field, KeyLen: opts.KeyLen,
			Unique: opts.Unique, Clustered: opts.Clustered, Priority: opts.Priority,
		})
		if err != nil {
			return err
		}
		if tbl.db.numDataDevices() > 1 {
			dev := tbl.db.pickDevice(h.deviceAffinity())
			if err := tbl.db.pool.Relocate(ix.Tree.ID(), dev); err != nil {
				return err
			}
		}
		return tbl.db.saveCatalog()
	})
}

// structural runs a heap-only statement under the table's Structural claim
// (snapshot readers drained and held out), once every index is online.
func (tbl *Table) structural(kind string, fn func(h *heapStore, stmt *obs.Stmt) error) error {
	if tbl.db.crashed.Load() {
		return errCrashed
	}
	h, err := tbl.heap()
	if err != nil {
		return err
	}
	stmt, held := tbl.db.beginStatement(kind, tbl.name,
		[]cc.Claim{{Table: tbl.name, Mode: cc.Structural}})
	defer tbl.db.endStatement(stmt, held)
	h.waitIndexesOnline()
	return fn(h, stmt)
}

// DropIndex removes an index.
func (tbl *Table) DropIndex(name string) error {
	h, err := tbl.heap()
	if err != nil {
		return err
	}
	if err := h.t.DropIndex(name); err != nil {
		return err
	}
	return tbl.db.saveCatalog()
}

// IndexNames lists the table's indexes in catalog order (none on an LSM
// table).
func (tbl *Table) IndexNames() []string {
	var out []string
	if h, ok := tbl.store.(*heapStore); ok {
		for _, ix := range h.t.Idx {
			out = append(out, ix.Def.Name)
		}
	}
	return out
}

// IndexHeight returns the height of the named index (0 if absent).
func (tbl *Table) IndexHeight(name string) int {
	if h, ok := tbl.store.(*heapStore); ok {
		if ix := h.t.FindIndex(name); ix != nil {
			return ix.Tree.Height()
		}
	}
	return 0
}

// Insert adds one row (values for the leading fields; the rest zero) and
// maintains every index. It returns the new record's RID. Inserts take a
// shared table lock, so they block while a bulk delete holds the table
// exclusively and resume once the lock is released (after the heap and the
// unique indexes are processed); updates to still-offline indexes go
// through their side-files.
func (tbl *Table) Insert(fields ...int64) (RID, error) { return tbl.insert(fields, false) }

// InsertDirect adds a row using direct propagation when indexes are
// offline during a concurrent bulk delete: entries are installed
// immediately and marked undeletable (paper §3.1.2). On an LSM table it is
// Insert.
func (tbl *Table) InsertDirect(fields ...int64) (RID, error) { return tbl.insert(fields, true) }

func (tbl *Table) insert(fields []int64, direct bool) (RID, error) {
	if tbl.db.crashed.Load() {
		return record.NilRID, errCrashed
	}
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	tbl.updMu.Lock()
	defer tbl.updMu.Unlock()
	return tbl.store.insert(fields, direct)
}

func (h *heapStore) insert(fields []int64, direct bool) (RID, error) {
	if direct {
		return h.t.InsertDirect(fields)
	}
	return h.t.Insert(fields)
}

// DeleteRow removes one record by RID.
func (tbl *Table) DeleteRow(rid RID) error {
	h, err := tbl.heap()
	if err != nil {
		return err
	}
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	tbl.updMu.Lock()
	defer tbl.updMu.Unlock()
	return h.t.DeleteRow(rid)
}

// beginSnapshotRead opens an MVCC snapshot read on the table: it takes the
// snapshot-read lock mode (admitted alongside a bulk delete's exclusive
// claim; blocked only by Structural claims), captures the commit epoch, and
// returns it with a release func. Callers must hold neither lock already.
func (h *heapStore) beginSnapshotRead() (s uint64, done func()) {
	db, lock := h.tbl.db, h.tbl.lock
	blocked := lock.LockSnapshotRead()
	reg := db.obs.Registry()
	reg.Counter(obs.MetricSnapshotReads).Add(1)
	if blocked {
		reg.Counter(obs.MetricSnapshotReadWaits).Add(1)
	}
	s = db.epochs.Snapshot()
	mv := h.t.MVCC
	return s, func() {
		db.epochs.Release(s)
		mv.Prune() // versions only this snapshot needed can go now
		db.noteRetainedBytes()
		lock.UnlockSnapshotRead()
	}
}

// noteFallbackScan records an indexed snapshot lookup that was served by
// the visibility-filtered heap scan instead of the index tree.
func (h *heapStore) noteFallbackScan(field int, usedIndex bool) {
	if !usedIndex && h.t.IndexOnField(field) != nil {
		h.tbl.db.obs.Registry().Counter(obs.MetricSnapshotFallbackScans).Add(1)
	}
}

// Get decodes the record at rid. With snapshot reads enabled (the default)
// it resolves the RID against a commit-epoch snapshot and does not block
// behind a concurrent bulk delete's exclusive lock. With them disabled it
// takes a shared table lock: it blocks while a bulk delete holds the table
// exclusively and proceeds once the §3.1 critical phase releases the lock
// (indexes still offline are not needed — Get reads the heap).
func (tbl *Table) Get(rid RID) ([]int64, error) {
	h, err := tbl.heap()
	if err != nil {
		return nil, err
	}
	if h.t.MVCC != nil {
		s, done := h.beginSnapshotRead()
		defer done()
		row, ok, err := h.t.SnapshotRow(rid, s)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("bulkdel: no record at %s", rid)
		}
		return row, nil
	}
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	return h.t.Get(rid)
}

// HasIndexOnField reports whether some index covers the field, i.e.
// whether Lookup/LookupRIDs on it can use an access path.
func (tbl *Table) HasIndexOnField(field int) bool {
	h, ok := tbl.store.(*heapStore)
	return ok && h.t.IndexOnField(field) != nil
}

// Lookup returns all rows whose field equals v, via an index on the field.
// With snapshot reads enabled it runs against a commit-epoch snapshot: it
// never blocks behind a bulk delete, and while one holds the table's index
// trees offline the lookup degrades to a visibility-filtered heap scan.
func (tbl *Table) Lookup(field int, v int64) ([][]int64, error) {
	return tbl.store.lookup(field, v)
}

func (h *heapStore) lookup(field int, v int64) ([][]int64, error) {
	if h.t.MVCC != nil {
		s, done := h.beginSnapshotRead()
		defer done()
		rows, usedIndex, err := h.t.SnapshotLookup(field, v, s)
		h.noteFallbackScan(field, usedIndex)
		return rows, err
	}
	h.tbl.lock.LockShared()
	defer h.tbl.lock.UnlockShared()
	return h.t.Lookup(field, v)
}

// LookupRIDs returns the RIDs of all rows whose field equals v, via an
// index on the field. Under snapshot reads, RIDs of rows deleted after the
// snapshot are included — they name the snapshot's retained images, and a
// Get through the same open View resolves them; a fresh Get may not.
func (tbl *Table) LookupRIDs(field int, v int64) ([]RID, error) {
	h, err := tbl.heap()
	if err != nil {
		return nil, err
	}
	if h.t.MVCC != nil {
		if h.t.IndexOnField(field) == nil {
			return nil, fmt.Errorf("bulkdel: table %s has no index on field %d", tbl.name, field)
		}
		s, done := h.beginSnapshotRead()
		defer done()
		rids, usedIndex, err := h.t.SnapshotLookupRIDs(field, v, s)
		h.noteFallbackScan(field, usedIndex)
		return rids, err
	}
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	ix := h.t.IndexOnField(field)
	if ix == nil {
		return nil, fmt.Errorf("bulkdel: table %s has no index on field %d", tbl.name, field)
	}
	// Wait out a previous statement's still-offline index pass (§3.1 early
	// release) before traversing the tree; see Table.Lookup. The latch
	// closes the torn-leaf window against concurrent online updaters.
	ix.Gate.WaitOnline()
	ix.Latch.RLock()
	defer ix.Latch.RUnlock()
	return ix.Tree.Search(ix.EncodeKey(v))
}

// LookupRange returns all rows with lo <= field value <= hi (both bounds
// inclusive), via an index on the field when one exists, else a heap scan.
// Index results arrive in key order; scan results in physical order.
func (tbl *Table) LookupRange(field int, lo, hi int64) ([][]int64, error) {
	return tbl.store.lookupRange(field, lo, hi)
}

func (h *heapStore) lookupRange(field int, lo, hi int64) ([][]int64, error) {
	t := h.t
	if t.MVCC != nil {
		s, done := h.beginSnapshotRead()
		defer done()
		rows, usedIndex, err := t.SnapshotLookupRange(field, lo, hi, s)
		h.noteFallbackScan(field, usedIndex)
		return rows, err
	}
	h.tbl.lock.LockShared()
	defer h.tbl.lock.UnlockShared()
	if lo > hi {
		return nil, nil
	}
	ix := t.IndexOnField(field)
	if ix == nil {
		var out [][]int64
		err := t.Heap.Scan(func(_ record.RID, rec []byte) error {
			v := t.Schema.Field(rec, field)
			if v >= lo && v <= hi {
				vals, err := t.Schema.Decode(rec)
				if err != nil {
					return err
				}
				out = append(out, vals)
			}
			return nil
		})
		return out, err
	}
	ix.Gate.WaitOnline()
	// SearchRange's hi bound is exclusive; hi+1 would overflow at the
	// top of the key space, so MaxInt64 becomes an open-ended scan.
	var hiKey []byte
	if hi < math.MaxInt64 {
		hiKey = ix.EncodeKey(hi + 1)
	}
	var rids []RID
	ix.Latch.RLock()
	err := ix.Tree.SearchRange(ix.EncodeKey(lo), hiKey, func(_ []byte, rid record.RID) error {
		rids = append(rids, rid)
		return nil
	})
	ix.Latch.RUnlock()
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 0, len(rids))
	for _, rid := range rids {
		row, err := t.Get(rid)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Scan calls fn for every row in physical order. Under snapshot reads the
// surviving rows come first in physical order, then the snapshot's retained
// rows (deleted after the snapshot) in RID order.
func (tbl *Table) Scan(fn func(rid RID, fields []int64) error) error {
	return tbl.store.scan(fn)
}

func (h *heapStore) scan(fn func(rid RID, fields []int64) error) error {
	if h.t.MVCC != nil {
		s, done := h.beginSnapshotRead()
		defer done()
		return h.t.SnapshotScan(s, fn)
	}
	h.tbl.lock.LockShared()
	defer h.tbl.lock.UnlockShared()
	return h.t.Heap.Scan(func(rid record.RID, rec []byte) error {
		vals, err := h.t.Schema.Decode(rec)
		if err != nil {
			return err
		}
		return fn(rid, vals)
	})
}

// View opens a stable read view: a snapshot epoch held across calls, so a
// sequence of reads observes one consistent state of the table regardless
// of concurrent deletes. The view admits alongside a bulk delete's
// exclusive lock (it blocks only behind Structural passes) and must be
// Closed — an open view pins retained versions and holds a snapshot-reader
// registration that Structural claims drain.
func (tbl *Table) View() (*View, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	h, err := tbl.heap()
	if err != nil {
		return nil, err
	}
	if h.t.MVCC == nil {
		return nil, fmt.Errorf("bulkdel: snapshot reads are disabled (Options.DisableSnapshotReads)")
	}
	s, done := h.beginSnapshotRead()
	return &View{h: h, s: s, done: done}, nil
}

// View is a stable MVCC read view over one table. Its read methods mirror
// the table's, evaluated at the view's snapshot epoch. Not safe for
// concurrent use by multiple goroutines.
type View struct {
	h    *heapStore
	s    uint64
	done func()
}

// Epoch returns the view's snapshot epoch.
func (v *View) Epoch() uint64 { return v.s }

// Close releases the view's snapshot. Idempotent.
func (v *View) Close() {
	if v.done != nil {
		v.done()
		v.done = nil
	}
}

// Get decodes the record at rid as of the view's snapshot; ok is false when
// the snapshot holds no such row.
func (v *View) Get(rid RID) (fields []int64, ok bool, err error) {
	return v.h.t.SnapshotRow(rid, v.s)
}

// Lookup returns all rows whose field equals val, as of the snapshot.
func (v *View) Lookup(field int, val int64) ([][]int64, error) {
	rows, usedIndex, err := v.h.t.SnapshotLookup(field, val, v.s)
	v.h.noteFallbackScan(field, usedIndex)
	return rows, err
}

// LookupRange returns all rows with lo <= field <= hi, as of the snapshot.
func (v *View) LookupRange(field int, lo, hi int64) ([][]int64, error) {
	rows, usedIndex, err := v.h.t.SnapshotLookupRange(field, lo, hi, v.s)
	v.h.noteFallbackScan(field, usedIndex)
	return rows, err
}

// Scan calls fn for every row visible to the snapshot.
func (v *View) Scan(fn func(rid RID, fields []int64) error) error {
	return v.h.t.SnapshotScan(v.s, fn)
}

// Check verifies heap/index agreement and every tree invariant. Like the
// other read entry points it takes the shared table lock, and it additionally
// waits for every index gate: a previous statement's early-released index
// passes must finish before the trees can be scanned (or judged).
func (tbl *Table) Check() error {
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	return tbl.store.check()
}

func (h *heapStore) check() error {
	h.waitIndexesOnline()
	return h.t.CheckConsistency()
}

// Flush forces the table's pages to disk. LSM tables are a no-op: the
// memtable's durability comes from the WAL, and SSTables are flushed as
// they are built.
func (tbl *Table) Flush() error { return tbl.store.flush() }

func (h *heapStore) flush() error { return h.t.Flush() }

// SetDeletePolicy switches the traditional delete's page reclamation
// between free-at-empty (default, the paper's choice) and merge-at-half.
// LSM tables have no B-trees to tune.
func (tbl *Table) SetDeletePolicy(mergeAtHalf bool) {
	if h, ok := tbl.store.(*heapStore); ok {
		policy := btree.FreeAtEmpty
		if mergeAtHalf {
			policy = btree.MergeAtHalf
		}
		h.t.SetPolicyAll(policy)
	}
}

// BulkOptions tunes Table.BulkDelete.
type BulkOptions struct {
	// Method selects the plan (default Auto).
	Method Method
	// Memory is the sort/hash working budget in bytes (default 5 MB).
	Memory int
	// Reorganize enables §2.3 leaf reorganization during the passes.
	Reorganize bool
	// CheckpointRows overrides the number of deletions between
	// mid-structure WAL checkpoints (default 100000; only with the WAL).
	// Crash tests set it low to exercise checkpoint replay.
	CheckpointRows int
	// Concurrent enables the §3.1 protocol: exclusive table lock,
	// indexes offline, side-files applied as each index completes, the
	// lock released once the table and all unique indexes are done.
	// Without it the whole statement runs under the exclusive lock.
	Concurrent bool
	// Parallel caps the number of workers for the remaining-index ⋈̸
	// passes (0/1 = serial). The effective degree is clamped to the
	// number of distinct devices those indexes live on, so it only helps
	// on a multi-device array (Options.Devices).
	Parallel int
	// Ctx, when set, makes the statement cooperatively cancellable: the
	// executor polls it at recoverable boundaries (page-I/O checkpoints in
	// the pass loops, structure starts/completions, DAG-node dispatch) and
	// stops with ErrCancelled when it is done. With the WAL enabled the
	// engine then runs abort-to-consistency — the §3.2 roll-forward is
	// replayed online, while the statement still holds its locks and gates,
	// so the structures end in the exact state a crash at that boundary
	// followed by Recover would produce. Because recovery is roll-forward-
	// only, that state is "the delete completed": a cancel can only stop a
	// statement before its first durable record (zero effect) or after it
	// (full effect, reached via replay) — never half-way. Without a WAL the
	// only recoverable boundary is before any structure was modified, so
	// cancellation is ignored once work begins. Cascades inherit the
	// context.
	Ctx context.Context
	// Timeout, when > 0, is the statement's real-time deadline: shorthand
	// for wrapping Ctx (or Background) in context.WithTimeout for this
	// statement. Expiry surfaces as ErrCancelled wrapping
	// context.DeadlineExceeded and bumps cc_deadline_exceeded.
	Timeout time.Duration
	// LockWait, when > 0, bounds the real time spent acquiring the
	// statement's lock footprint. Expiry fails fast with ErrLockTimeout
	// before anything ran — always safe to retry (see DB.RunConcurrentCtx).
	LockWait time.Duration
}

// BulkResult reports a bulk delete.
type BulkResult struct {
	// Deleted records removed from the table.
	Deleted int64
	// Victims is the size of the victim list.
	Victims int
	// Method actually used.
	Method Method
	// Partitions used by the hash+range-partitioning plan.
	Partitions int
	// Elapsed simulated time: the serial-equivalent total — the sum of
	// every device's busy time plus CPU — regardless of parallelism.
	Elapsed time.Duration
	// Makespan is the statement's simulated wall-clock length: equal to
	// Elapsed for serial runs, shorter when the remaining-index passes
	// overlapped on separate devices.
	Makespan time.Duration
	// Workers that executed the remaining-index passes (1 = serial).
	Workers int
	// PlanText is the executed plan, rendered like the paper's figures.
	PlanText string
	// SideFileOps counts concurrent updates replayed from side-files.
	SideFileOps int
	// Cascaded counts rows removed from child tables by ON DELETE
	// CASCADE foreign keys (recursively).
	Cascaded int64
	// Trace is the statement's phase tree: one span per execution phase
	// (victim collection, sort, per-structure ⋈̸ pass, WAL flush), each
	// with its I/O attribution on the simulated clock.
	Trace *Trace

	stats *core.Stats
}

// ExplainAnalyze renders the executed plan annotated per node with the
// measured actuals — rows, page reads/writes, seeks, buffer hit ratio,
// WAL bytes, simulated time — beside the planner's estimates.
func (r *BulkResult) ExplainAnalyze() string {
	if r.stats == nil {
		return ""
	}
	return r.stats.ExplainAnalyze()
}

// MetricsJSON encodes the same data as ExplainAnalyze — method, planner
// estimates, per-structure I/O, the full phase trace — as stable JSON:
// identical runs produce identical bytes.
func (r *BulkResult) MetricsJSON() ([]byte, error) {
	if r.stats == nil {
		return nil, fmt.Errorf("bulkdel: result carries no statistics")
	}
	return r.stats.MetricsJSON()
}

// target builds core's view of the table.
func (h *heapStore) target() *core.Target {
	tgt := &core.Target{
		Name: h.t.Name, Heap: h.t.Heap, Schema: h.t.Schema, Pool: h.tbl.db.pool,
	}
	for _, ix := range h.t.Idx {
		tgt.Indexes = append(tgt.Indexes, core.IndexRef{
			Name: ix.Def.Name, Tree: ix.Tree, Field: ix.Def.Field,
			Unique: ix.Def.Unique, Clustered: ix.Def.Clustered,
			Priority: ix.Def.Priority, Gate: ix.Gate, Latch: &ix.Latch,
		})
	}
	return tgt
}

// retainTarget arms a target's MVCC retention hook, bound to one deleting
// statement's token: Retain copies each victim's pre-delete image into the
// version store before the slot is tombstoned or truncated away. A
// replayed statement (online roll-forward after cancel) must pass the same
// token as its first attempt, so its retained images commit with the
// statement instead of lingering pending forever.
func (h *heapStore) retainTarget(tgt *core.Target, token uint64) {
	mv := h.t.MVCC
	if mv == nil {
		return
	}
	reg := h.tbl.db.obs.Registry()
	tgt.Retain = func(rid record.RID, rec []byte) {
		mv.Retain(token, rid, rec)
		reg.Counter(obs.MetricVersionsRetained).Add(1)
		reg.Gauge(obs.MetricVersionsRetainedBytes).Add(int64(len(rec)))
	}
}

// BulkDelete executes DELETE FROM tbl WHERE field IN (values) with the
// vertical bulk delete operator — the paper's contribution. With the WAL
// enabled the statement is checkpointed and crash-recoverable (it is
// rolled forward, not back). Declared foreign keys are enforced first,
// vertically: RESTRICT probes run read-only before anything is modified,
// CASCADE recursively bulk-deletes the referencing child rows.
//
// The statement locks its whole footprint — this table plus every
// cascade-reachable child exclusively, RESTRICT children shared — up
// front, in the lock manager's deterministic order, so bulk deletes on
// different tables run concurrently and overlapping ones cannot deadlock.
func (tbl *Table) BulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	return tbl.store.bulkDelete(field, values, opts)
}

func (h *heapStore) bulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error) {
	tbl := h.tbl
	// Overload guard: a statement that wants pool workers is shed here, at
	// admission — before any lock is taken or log record written — when the
	// pool's waiter queue is at its cap, so a shed statement is always safe
	// to retry.
	if opts.Parallel > 1 && !tbl.db.sched.Admit() {
		stmt := tbl.db.obs.Events().Begin("bulk-delete", tbl.name)
		stmt.Event(obs.EvShed, "admission queue full")
		stmt.End()
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", tbl.name, ErrOverloaded)
	}
	if opts.Timeout > 0 {
		parent := opts.Ctx
		if parent == nil {
			parent = context.Background()
		}
		ctx, cancel := context.WithTimeout(parent, opts.Timeout)
		defer cancel()
		opts.Ctx = ctx
		opts.Timeout = 0
	}
	claims, fks := tbl.db.deleteFootprint(tbl)
	stmt, held, err := tbl.db.beginStatementTimeout("bulk-delete", tbl.name, claims, opts.LockWait)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", tbl.name, err)
	}
	defer tbl.db.endStatement(stmt, held)
	return h.bulkDeleteWithDepth(field, values, opts, 0, stmt, held, fks)
}

// DeleteRange deletes every row whose field value lies in [lo, hi], both
// bounds inclusive.
//
// On an LSM table with field == 0 this is the backend's signature move:
// one range tombstone is logged and dropped into the memtable — O(1)
// foreground I/O regardless of how many rows the range covers — and the
// result's Deleted is -1 (a blind delete does not know the count; the
// covered rows disappear from every read immediately and their space is
// reclaimed by delete-aware compaction within TombstoneTTL flushes).
// Non-key fields fall back to a merged scan issuing point tombstones.
//
// On a heap table the range is resolved to its distinct field values and
// handed to the regular ⋈̸ BulkDelete machinery.
func (tbl *Table) DeleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error) {
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	if lo > hi {
		return &BulkResult{}, nil
	}
	return tbl.store.deleteRange(field, lo, hi, opts)
}

func (h *heapStore) deleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error) {
	rows, err := h.lookupRange(field, lo, hi)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, len(rows))
	for i, row := range rows {
		vals[i] = row[field]
	}
	if vals = dedupInt64(vals); len(vals) == 0 {
		return &BulkResult{}, nil
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return h.bulkDelete(field, vals, opts)
}

// bulkDeleteWithDepth runs one level of the (possibly cascading) delete.
// All locks were acquired by BulkDelete at depth 0; held carries them so
// recursion never re-acquires (which would self-deadlock). fks is the FK
// snapshot the footprint was computed from — every level enforces this
// snapshot, never a re-read of the live list, so the cascade graph cannot
// outgrow the locks.
func (h *heapStore) bulkDeleteWithDepth(field int, values []int64, opts BulkOptions, depth int, stmt *obs.Stmt, held *cc.Held, fks []ForeignKey) (*BulkResult, error) {
	tbl, t := h.tbl, h.t
	if tbl.db.crashed.Load() {
		return nil, errCrashed
	}
	res := &BulkResult{Victims: len(values)}

	// Referential integrity first — "as early as possible and before
	// deleting records from the table and the indices" (paper §2.1).
	cascaded, err := tbl.db.enforceForeignKeys(h, field, values, opts, depth, stmt, held, fks)
	if err != nil {
		return nil, err
	}
	res.Cascaded = cascaded

	coreOpts := core.Options{
		Ctx:            opts.Ctx,
		Method:         opts.Method,
		Memory:         opts.Memory,
		Reorganize:     opts.Reorganize,
		CheckpointRows: opts.CheckpointRows,
		Parallel:       opts.Parallel,
		Sched:          tbl.db.sched,
		Stmt:           stmt,
	}
	if tbl.db.log != nil {
		coreOpts.Log = tbl.db.log
		coreOpts.TxID = tbl.db.nextTx()
	}

	// The statement trace: core fills in the phase spans; we own the root.
	tr := obs.NewTrace("bulk-delete",
		fmt.Sprintf("table=%s field=%d victims=%d", tbl.name, field, len(values)),
		tbl.db.obsSource())
	coreOpts.Trace = tr
	res.Trace = tr

	// §3.1 concurrency protocol: the root level's exclusive lock is released
	// at this level's end, or earlier via OnCriticalDone; ReleaseTable is
	// idempotent. Cascade children (depth > 0) keep their locks until the
	// statement's ReleaseAll: a diamond FK graph can cascade into the same
	// child from two branches, and an early release after the first visit
	// would let another statement lock the child while our second visit
	// still mutates it.
	unlock := func() {}
	if depth == 0 {
		unlock = func() { held.ReleaseTable(tbl.name) }
	}
	defer unlock()

	// A previous statement's early release means its non-critical index
	// passes may still be running offline; wait for every gate before
	// touching the trees (updaters may queue through side-files, but two
	// bulk passes on one tree must not overlap).
	h.waitIndexesOnline()

	// MVCC: open this level's retain token, and stamp its versions with one
	// commit epoch exactly once — at §3.1 early release in concurrent mode
	// (the statement's logical commit point), at level end otherwise.
	// BeginDelete runs before any gate goes offline: it drains snapshot
	// readers out of the index trees, then sends new ones to the
	// visibility-filtered heap scan until EndDelete — which is deferred
	// FIRST so it runs after the gate-cleanup defer below brings every tree
	// back online.
	mv := t.MVCC
	var token uint64
	levelCommit := func() {}
	if mv != nil {
		token = mv.NewToken()
		var commitOnce sync.Once
		levelCommit = func() {
			commitOnce.Do(func() {
				mv.CommitToken(token) // prunes behind the horizon
				tbl.db.noteRetainedBytes()
			})
		}
		defer levelCommit()
		mv.BeginDelete()
		defer mv.EndDelete()
	}

	// Parallel passes invoke OnStructureDone from concurrent goroutines;
	// the side-file replay below mutates res, so serialize it.
	var sfMu sync.Mutex

	if opts.Concurrent {
		byFile := make(map[sim.FileID]*table.Index, len(t.Idx))
		// reopened tracks the gates this statement has already brought back
		// online. The cleanup below must consult it, not Gate.State(): once
		// every pass is done the next statement may acquire the lock, pass
		// waitIndexesOnline, and take the gates offline again before our
		// deferred cleanup runs — quiescing that statement's side-file and
		// reopening its gates mid-pass would corrupt its trees.
		reopened := make(map[sim.FileID]bool, len(t.Idx))
		for _, ix := range t.Idx {
			ix.Gate.TakeOffline()
			stmt.Event(obs.EvGateOffline, ix.Def.Name)
			byFile[ix.Tree.ID()] = ix
		}
		coreOpts.Undeletable = t.Undeletable
		coreOpts.OnStructureDone = func(file sim.FileID) {
			sfMu.Lock()
			defer sfMu.Unlock()
			ix, ok := byFile[file]
			if !ok {
				return // the heap: nothing to reopen
			}
			reopened[file] = true
			// Apply the side-file: drain in batches while appends
			// continue, then quiesce for the final batch and bring
			// the index online (§3.1.1).
			before := res.SideFileOps
			sf := ix.Gate.SideFile()
			for sf.Len() > 64 {
				res.SideFileOps += applySideOps(ix, sf.Drain(64))
			}
			res.SideFileOps += applySideOps(ix, sf.Quiesce())
			ix.Gate.BringOnline()
			stmt.Event(obs.EvGateOnline,
				fmt.Sprintf("%s side-ops=%d", ix.Def.Name, res.SideFileOps-before))
		}
		coreOpts.OnCriticalDone = func() {
			// Table and unique indexes durable: this is the statement's
			// commit point. Stamp the retained versions before releasing
			// the lock, so no reader starting after the release can still
			// see the deleted rows (§3.1).
			levelCommit()
			if depth == 0 {
				stmt.Event(obs.EvEarlyRelease, tbl.name)
			}
			unlock()
		}
		defer func() {
			// Whatever happens, no gate WE took offline stays offline. Only
			// not-yet-reopened gates are ours — an offline gate whose pass
			// completed belongs to the next statement (see reopened above).
			sfMu.Lock()
			defer sfMu.Unlock()
			for _, ix := range t.Idx {
				if !reopened[ix.Tree.ID()] {
					res.SideFileOps += applySideOps(ix, ix.Gate.SideFile().Quiesce())
					ix.Gate.BringOnline()
					stmt.Event(obs.EvGateOnline, ix.Def.Name+" (cleanup)")
				}
			}
		}()
	}

	tgt := h.target()
	h.retainTarget(tgt, token)
	st, err := core.Execute(tgt, field, values, coreOpts)
	tr.Finish()
	tbl.db.obs.OnTrace(tr)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) {
			// Abort-to-consistency runs HERE, inside the statement: the
			// deferred gate cleanup and lock release have not fired yet, so
			// the replay owns the structures exactly as crash recovery
			// would. After it returns, the deferred cleanup drains the
			// side-files and reopens the gates on the now-final trees —
			// the same epilogue as the success path. The replay retains
			// under this level's token, so the deferred levelCommit stamps
			// its versions too.
			if aerr := h.abortToConsistency(stmt, opts.Ctx, coreOpts.TxID, field, token); aerr != nil {
				return nil, fmt.Errorf("bulkdel: bulk delete on %s: abort-to-consistency failed: %v (statement error: %w)",
					tbl.name, aerr, err)
			}
		}
		return nil, fmt.Errorf("bulkdel: bulk delete on %s: %w", tbl.name, err)
	}
	if depth == 0 {
		// The statement's footprint was acquired once, before depth 0 ran;
		// report the real blocking time on the root's stats only.
		st.LockWait = held.WaitTotal()
	}
	res.Deleted = st.Deleted
	res.Method = st.Method
	res.Partitions = st.Partitions
	res.Elapsed = st.Elapsed
	res.Makespan = st.Makespan
	res.Workers = st.Workers
	if res.Workers == 0 {
		res.Workers = 1
	}
	res.PlanText = st.PlanText
	res.stats = st
	return res, nil
}

// abortToConsistency handles a statement that stopped with ErrCancelled:
// it records the cancellation (cc_aborts, plus cc_deadline_exceeded when
// the context died of its deadline), then brings the structures to the
// exact state a crash at the same boundary followed by Recover would
// produce, by replaying the §3.2 roll-forward online (DB.rollForwardOnline).
// Must be called while the statement still holds its locks and gates.
func (h *heapStore) abortToConsistency(stmt *obs.Stmt, ctx context.Context, txID uint64, field int, token uint64) error {
	db := h.tbl.db
	reg := db.obs.Registry()
	reg.Counter(obs.MetricAborts).Add(1)
	detail := "cancelled"
	if ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		reg.Counter(obs.MetricDeadlineExceeded).Add(1)
		detail = "deadline exceeded"
	}
	stmt.Event(obs.EvCancel, detail)
	if db.log == nil {
		// No WAL: the executor only honors cancellation before any
		// structure was modified, so there is nothing to roll forward.
		stmt.Event(obs.EvAbort, "no wal: zero-effect abort")
		return nil
	}
	deleted, err := db.rollForwardOnline(h, txID, field, token)
	if err != nil {
		return err
	}
	stmt.Event(obs.EvAbort, fmt.Sprintf("online roll-forward complete, rows=%d", deleted))
	return nil
}

// waitIndexesOnline blocks until no index of the table is offline. Every
// statement that modifies the table through the index trees directly calls
// this right after taking the exclusive lock: the previous bulk delete may
// have released the lock early (§3.1) with its remaining index passes
// still in flight, and those passes own the offline trees until their
// gates reopen.
func (h *heapStore) waitIndexesOnline() {
	for _, ix := range h.t.Idx {
		ix.Gate.WaitOnline()
	}
}

// applySideOps replays deferred index operations and returns how many it
// replayed. Errors are dropped: its callers, the executor's structure-done
// hook and the deferred gate cleanup, have no error path, and a delete may
// find its entry already removed by the bulk delete.
func applySideOps(ix *table.Index, ops []cc.Op) int {
	for _, op := range ops {
		if op.Kind == cc.OpInsert {
			_ = ix.Tree.Insert(op.Key, op.RID)
		} else {
			_ = ix.Tree.Delete(op.Key, op.RID)
		}
	}
	return len(ops)
}

// UpdateResult reports a bulk update.
type UpdateResult struct {
	// Updated records.
	Updated int64
	// EntriesMoved counts index entries deleted and reinserted.
	EntriesMoved int64
	// Elapsed simulated time.
	Elapsed time.Duration
}

// BulkUpdate executes
//
//	UPDATE tbl SET setField = transform(setField) WHERE predField IN (values)
//
// with the vertical technique the paper's introduction sketches for UPDATE
// statements: the records are updated in one physical-order pass and each
// index over setField receives a bulk delete of the old entries followed
// by a bulk insert of the new ones. Indexes over other attributes are
// untouched. The statement runs under the exclusive table lock and is not
// WAL-protected (see DESIGN.md's future-work notes).
func (tbl *Table) BulkUpdate(predField int, values []int64, setField int,
	transform func(int64) int64, opts BulkOptions) (*UpdateResult, error) {

	// Structural: unlike a bulk delete, the update rewrites records in
	// place without retaining pre-images, so snapshot readers must be
	// drained and held out, not admitted.
	var st *core.UpdateStats
	err := tbl.structural("bulk-update", func(h *heapStore, stmt *obs.Stmt) (err error) {
		st, err = core.ExecuteUpdate(h.target(), predField, values, setField, transform, core.Options{
			Memory:     opts.Memory,
			Reorganize: opts.Reorganize,
			Stmt:       stmt,
		})
		if err == nil {
			h.resetSnapshots()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &UpdateResult{
		Updated:      st.Updated,
		EntriesMoved: st.EntriesMoved,
		Elapsed:      st.Elapsed,
	}, nil
}

// DeleteTraditional runs the record-at-a-time baseline: every victim
// probed through the access index, each record removed from the heap and
// from every index individually.
func (tbl *Table) DeleteTraditional(field int, values []int64, sortValues bool) (int64, error) {
	// Structural: the baseline deletes record-at-a-time with no version
	// retention, so snapshot readers are held out for the duration.
	var n int64
	err := tbl.structural("delete-traditional", func(h *heapStore, _ *obs.Stmt) (err error) {
		n, err = h.t.TraditionalDelete(field, values, sortValues)
		h.resetSnapshots()
		return err
	})
	return n, err
}

// DeleteDropCreate runs the drop-&-create baseline: secondary indexes are
// dropped, the delete runs against the access index only, and the dropped
// indexes are rebuilt.
func (tbl *Table) DeleteDropCreate(field int, values []int64) (int64, error) {
	// Structural: index trees are dropped and rebuilt wholesale; no reader
	// — snapshot or otherwise — may observe the intermediate state.
	var n int64
	err := tbl.structural("delete-drop-create", func(h *heapStore, _ *obs.Stmt) (err error) {
		n, err = h.t.DropCreateDelete(field, values, true)
		h.resetSnapshots()
		if err != nil {
			return err
		}
		return tbl.db.saveCatalog()
	})
	return n, err
}

// resetSnapshots discards the table's volatile MVCC state after an offline
// structural pass. The caller must hold a Structural claim on the table, so
// no snapshot reader can be open.
func (h *heapStore) resetSnapshots() {
	if mv := h.t.MVCC; mv != nil {
		mv.Reset()
	}
}

// Explain renders the plan the given method would execute for a bulk
// delete on the field — the code form of the paper's Figures 3–5.
func (tbl *Table) Explain(field int, m Method, memory int) string {
	return tbl.store.explain(field, m, memory)
}

func (h *heapStore) explain(field int, m Method, memory int) string {
	if memory <= 0 {
		memory = table.DefaultSortBudget
	}
	tgt := h.target()
	if m == Auto {
		m = core.ChooseMethod(tgt, field, 0, memory)
	}
	return core.BuildPlan(tgt, field, m, memory, 1).String()
}

// EstimateMethods returns the planner's cost estimates for a victim count,
// in plan order. An LSM table has no ⋈̸ plans: the map is empty.
func (tbl *Table) EstimateMethods(field, victims, memory int) map[string]time.Duration {
	if memory <= 0 {
		memory = table.DefaultSortBudget
	}
	out := make(map[string]time.Duration)
	h, ok := tbl.store.(*heapStore)
	if !ok {
		return out
	}
	for _, e := range core.EstimateCosts(h.target(), field, victims, memory) {
		out[e.Method.String()] = e.Time
	}
	return out
}
