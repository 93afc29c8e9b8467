// Package table ties a heap file and its B-link indexes into a catalog
// object and implements the paper's two baseline delete strategies:
//
//   - the *traditional* horizontal, record-at-a-time delete (with and
//     without pre-sorting the victim list — the paper's "sorted/trad" and
//     "not sorted/trad"), and
//   - *drop & create*: drop the secondary indexes, delete using only the
//     access-path index, and rebuild the dropped indexes afterwards.
//
// The vertical bulk delete itself — the paper's contribution — lives in
// package core and operates on the Target view exported from here.
package table

import (
	"fmt"
	"sort"
	"sync"

	"bulkdel/internal/btree"
	"bulkdel/internal/buffer"
	"bulkdel/internal/cc"
	"bulkdel/internal/heap"
	"bulkdel/internal/keyenc"
	"bulkdel/internal/record"
	"bulkdel/internal/xsort"
)

// DefaultSortBudget is the working memory used for index builds and victim
// sorting when the caller does not override it — 5 MB, the paper's default
// ("our prototype uses only 10 MB of main memory", half of which the
// experiments grant to sorting; Figures 7/8/10 use 5 MB).
const DefaultSortBudget = 5 << 20

// IndexDef describes one index over a single integer attribute.
type IndexDef struct {
	Name string
	// Field is the attribute position in the schema.
	Field int
	// KeyLen is the encoded key width (>= 8). Wider keys shrink fan-out
	// and grow the tree — the knob of the paper's Experiment 3.
	KeyLen int
	// Unique enforces key uniqueness and forces the index to be
	// processed before the table lock is released (paper §3.1).
	Unique bool
	// Clustered records that the heap is loaded in this attribute's
	// order, so RID order implies key order (paper's Experiment 5).
	Clustered bool
	// Priority ranks application-critical indexes for processing order.
	Priority int
}

// Index is one secondary or primary access path.
type Index struct {
	Def  IndexDef
	Tree *btree.Tree
	Gate *cc.Gate
	// Latch serializes online tree mutations against point/range reads
	// that run under a shared table lock. A B-link leaf insert shifts
	// entries before writing the new one, so an unlatched reader scanning
	// the same leaf can transiently see the displaced entry twice — a
	// duplicate row from a unique-index lookup (the ROADMAP churn issue).
	// Updaters (applyOpToTree) take it exclusively; index readers take it
	// shared. Bulk-delete passes never take it: they mutate trees only
	// while the gate protocol (offline gates + the exclusive table lock)
	// excludes gate-respecting readers.
	Latch sync.RWMutex
}

// EncodeKey encodes an attribute value for this index's key width.
func (ix *Index) EncodeKey(v int64) []byte {
	return keyenc.Int64Key(v, ix.Def.KeyLen)
}

// Table is a base table with its indexes. Heap is the storage behind the
// table: a single heap file, or a partitioned heap split on the table's
// delete key (heap.Partitioned) whose partitions can live on different
// devices.
type Table struct {
	Name   string
	Schema record.Schema
	Heap   heap.Store
	Idx    []*Index
	// Undeletable marks entries installed by concurrent transactions via
	// direct propagation during a bulk delete.
	Undeletable *cc.UndeletableSet
	// SortBudget is the working memory for index builds and victim sorts.
	SortBudget int
	// MVCC is the table's volatile snapshot-read state (nil when the DB
	// runs with snapshot reads disabled). See mvcc.go.
	MVCC *MVCC

	pool *buffer.Pool
}

// Create makes an empty table.
func Create(pool *buffer.Pool, name string, schema record.Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	h, err := heap.Create(pool, schema.Size)
	if err != nil {
		return nil, err
	}
	return &Table{
		Name:        name,
		Schema:      schema,
		Heap:        h,
		Undeletable: cc.NewUndeletableSet(),
		SortBudget:  DefaultSortBudget,
		pool:        pool,
	}, nil
}

// CreatePartitioned makes an empty table whose heap is partitioned by spec.
// Partition device placement is the caller's concern (see internal/place).
func CreatePartitioned(pool *buffer.Pool, name string, schema record.Schema, spec heap.PartitionSpec) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	h, err := heap.CreatePartitioned(pool, schema, spec)
	if err != nil {
		return nil, err
	}
	return &Table{
		Name:        name,
		Schema:      schema,
		Heap:        h,
		Undeletable: cc.NewUndeletableSet(),
		SortBudget:  DefaultSortBudget,
		pool:        pool,
	}, nil
}

// Pool returns the table's buffer pool.
func (t *Table) Pool() *buffer.Pool { return t.pool }

// ReattachForRecovery rebuilds a Table around an already-opened heap store
// during crash recovery; the caller attaches the reopened indexes to Idx.
func ReattachForRecovery(pool *buffer.Pool, name string, schema record.Schema, h heap.Store) *Table {
	return &Table{
		Name:        name,
		Schema:      schema,
		Heap:        h,
		Undeletable: cc.NewUndeletableSet(),
		SortBudget:  DefaultSortBudget,
		pool:        pool,
	}
}

// FindIndex returns the index with the given name, or nil.
func (t *Table) FindIndex(name string) *Index {
	for _, ix := range t.Idx {
		if ix.Def.Name == name {
			return ix
		}
	}
	return nil
}

// IndexOnField returns the first index over the field, or nil.
func (t *Table) IndexOnField(field int) *Index {
	for _, ix := range t.Idx {
		if ix.Def.Field == field {
			return ix
		}
	}
	return nil
}

// Insert adds a row and maintains every online index; offline indexes
// receive the change through their side-file (blocking briefly when the
// side-file is quiesced).
func (t *Table) Insert(fields []int64) (record.RID, error) {
	rec, err := t.Schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	rid, err := t.Heap.Insert(rec)
	if err != nil {
		return record.NilRID, err
	}
	// Birth is stamped before any index entry exists, so an index-path
	// snapshot reader that can see the entry always has the birth to
	// filter the row by.
	if t.MVCC != nil {
		t.MVCC.RecordBirth(rid)
	}
	for _, ix := range t.Idx {
		key := ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field))
		if err := t.applyIndexOp(ix, cc.Op{Kind: cc.OpInsert, Key: key, RID: rid}, false); err != nil {
			return record.NilRID, err
		}
	}
	return rid, nil
}

// InsertDirect adds a row using direct propagation for offline indexes:
// the entry is installed immediately and marked undeletable so the running
// bulk delete cannot remove it (paper §3.1.2).
func (t *Table) InsertDirect(fields []int64) (record.RID, error) {
	rec, err := t.Schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	rid, err := t.Heap.Insert(rec)
	if err != nil {
		return record.NilRID, err
	}
	if t.MVCC != nil {
		t.MVCC.RecordBirth(rid)
	}
	for _, ix := range t.Idx {
		key := ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field))
		if err := t.applyIndexOp(ix, cc.Op{Kind: cc.OpInsert, Key: key, RID: rid}, true); err != nil {
			return record.NilRID, err
		}
	}
	return rid, nil
}

// applyIndexOp routes one index maintenance operation according to the
// index's gate state. direct selects direct propagation over the side-file.
func (t *Table) applyIndexOp(ix *Index, op cc.Op, direct bool) error {
	if ix.Gate == nil {
		return t.applyOpToTree(ix, op)
	}
	if direct {
		if ix.Gate.State() == cc.Offline && op.Kind == cc.OpInsert {
			t.Undeletable.Mark(op.Key, op.RID)
		}
		return t.applyOpToTree(ix, op)
	}
	// The state check and the append must be one atomic step: checking
	// State() first and appending after would let the bulk pass quiesce,
	// apply the final batch, and reopen the side-file in between — the
	// appended op would sit in the reopened side-file forever.
	queued, err := ix.Gate.AppendIfOffline(op)
	if !queued {
		return t.applyOpToTree(ix, op)
	}
	if err == cc.ErrQuiesced {
		// The bulk deleter is applying the final batch; wait for the
		// index to come online and update it directly.
		ix.Gate.WaitOnline()
		return t.applyOpToTree(ix, op)
	}
	return err
}

func (t *Table) applyOpToTree(ix *Index, op cc.Op) error {
	ix.Latch.Lock()
	defer ix.Latch.Unlock()
	if op.Kind == cc.OpInsert {
		return ix.Tree.Insert(op.Key, op.RID)
	}
	err := ix.Tree.Delete(op.Key, op.RID)
	if err == btree.ErrNotFound {
		// The bulk delete may have removed the entry already; a
		// side-file delete of such an entry is a no-op.
		return nil
	}
	return err
}

// DeleteRow removes one row by RID, maintaining all indexes (side-file
// aware). It reads the record first to compute the index keys.
func (t *Table) DeleteRow(rid record.RID) error {
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	// Retain the image before tombstoning so a concurrent snapshot reader
	// always finds the row in the heap or the version store; the version
	// is stamped with a fresh epoch once the indexes are maintained.
	var token uint64
	if t.MVCC != nil {
		token = t.MVCC.NewToken()
		t.MVCC.Retain(token, rid, rec)
	}
	if err := t.Heap.Delete(rid); err != nil {
		if t.MVCC != nil {
			t.MVCC.AbortToken(token)
		}
		return err
	}
	// The slot is tombstoned: from here the delete commits even if index
	// maintenance fails below, so the retained version must be stamped
	// either way — a version left pending would stay visible to every
	// future snapshot and never prune.
	if t.MVCC != nil {
		defer t.MVCC.CommitToken(token)
	}
	for _, ix := range t.Idx {
		key := ix.EncodeKey(t.Schema.Field(rec, ix.Def.Field))
		if err := t.applyIndexOp(ix, cc.Op{Kind: cc.OpDelete, Key: key, RID: rid}, false); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the decoded row at rid.
func (t *Table) Get(rid record.RID) ([]int64, error) {
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return t.Schema.Decode(rec)
}

// CreateIndex builds a new index over the current table contents: one heap
// scan feeding an external sort feeding a bottom-up bulk load — the
// "create" half of the drop-&-create baseline.
func (t *Table) CreateIndex(def IndexDef) (*Index, error) {
	if def.Field < 0 || def.Field >= t.Schema.NumFields {
		return nil, fmt.Errorf("table %s: index field %d out of range", t.Name, def.Field)
	}
	if def.KeyLen == 0 {
		def.KeyLen = keyenc.Int64Width
	}
	if def.KeyLen < keyenc.Int64Width {
		return nil, fmt.Errorf("table %s: key length %d below %d", t.Name, def.KeyLen, keyenc.Int64Width)
	}
	if t.FindIndex(def.Name) != nil {
		return nil, fmt.Errorf("table %s: index %q already exists", t.Name, def.Name)
	}
	tree, err := btree.Create(t.pool, def.KeyLen, def.Unique)
	if err != nil {
		return nil, err
	}
	ix := &Index{Def: def, Tree: tree, Gate: cc.NewGate()}
	if t.Heap.Count() > 0 {
		if err := t.buildIndex(ix); err != nil {
			return nil, err
		}
	}
	t.Idx = append(t.Idx, ix)
	return ix, nil
}

// buildIndex fills an empty tree from the heap via scan + sort + bulk load.
func (t *Table) buildIndex(ix *Index) error {
	rowSize := ix.Def.KeyLen + record.RIDSize
	srt, err := xsort.New(t.pool.Disk(), rowSize, t.SortBudget, nil)
	if err != nil {
		return err
	}
	row := make([]byte, rowSize)
	err = t.Heap.Scan(func(rid record.RID, rec []byte) error {
		for i := range row {
			row[i] = 0
		}
		keyenc.PutInt64(row, t.Schema.Field(rec, ix.Def.Field))
		record.PutRID(row[ix.Def.KeyLen:], rid)
		return srt.Add(row)
	})
	if err != nil {
		return err
	}
	it, err := srt.Finish()
	if err != nil {
		return err
	}
	defer it.Close()
	key := make([]byte, ix.Def.KeyLen)
	err = ix.Tree.BulkLoad(func() (btree.Entry, bool, error) {
		r, ok, err := it.Next()
		if err != nil || !ok {
			return btree.Entry{}, false, err
		}
		copy(key, r[:ix.Def.KeyLen])
		return btree.Entry{Key: key, RID: record.GetRID(r[ix.Def.KeyLen:])}, true, nil
	}, 1.0)
	return err
}

// DropIndex removes an index and its file.
func (t *Table) DropIndex(name string) error {
	for i, ix := range t.Idx {
		if ix.Def.Name == name {
			if err := ix.Tree.Drop(); err != nil {
				return err
			}
			t.Idx = append(t.Idx[:i], t.Idx[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("table %s: no index %q", t.Name, name)
}

// Repartition rebuilds the table's heap under a new partition spec — or
// back to a single file when spec is empty. Every RID changes, so each
// index is reset and rebuilt from the new heap (file IDs and device
// placements survive). The caller holds the table's exclusive lock and
// re-saves the catalog afterwards.
func (t *Table) Repartition(spec heap.PartitionSpec) error {
	var ns heap.Store
	if spec.NumParts() > 0 {
		ph, err := heap.CreatePartitioned(t.pool, t.Schema, spec)
		if err != nil {
			return err
		}
		ns = ph
	} else {
		f, err := heap.Create(t.pool, t.Schema.Size)
		if err != nil {
			return err
		}
		ns = f
	}
	err := t.Heap.Scan(func(_ record.RID, rec []byte) error {
		_, err := ns.Insert(rec)
		return err
	})
	if err != nil {
		_ = ns.Drop()
		return err
	}
	old := t.Heap
	t.Heap = ns
	// Every RID changed; volatile snapshot state would point at garbage.
	// The Structural lock the caller holds guarantees no snapshot reader
	// is open on the table.
	if t.MVCC != nil {
		t.MVCC.Reset()
	}
	for _, ix := range t.Idx {
		if err := ix.Tree.ResetEmpty(); err != nil {
			return err
		}
		if t.Heap.Count() > 0 {
			if err := t.buildIndex(ix); err != nil {
				return err
			}
		}
	}
	if err := old.Drop(); err != nil {
		return err
	}
	return t.Flush()
}

// Flush persists the heap and every index.
func (t *Table) Flush() error {
	if err := t.Heap.Flush(); err != nil {
		return err
	}
	for _, ix := range t.Idx {
		if err := ix.Tree.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// CheckConsistency verifies that the heap and every index agree exactly:
// each live record has one entry per index and no index holds extras. It is
// the integration-test oracle after bulk deletes.
func (t *Table) CheckConsistency() error {
	for _, ix := range t.Idx {
		ix.Latch.RLock()
		err := ix.Tree.CheckInvariants()
		ix.Latch.RUnlock()
		if err != nil {
			return fmt.Errorf("table %s index %s: %w", t.Name, ix.Def.Name, err)
		}
		if ix.Tree.Count() != t.Heap.Count() {
			return fmt.Errorf("table %s index %s: %d entries for %d records",
				t.Name, ix.Def.Name, ix.Tree.Count(), t.Heap.Count())
		}
	}
	// Collect heap contents once.
	type pair struct {
		key int64
		rid record.RID
	}
	perIndex := make([][]pair, len(t.Idx))
	err := t.Heap.Scan(func(rid record.RID, rec []byte) error {
		for i, ix := range t.Idx {
			perIndex[i] = append(perIndex[i], pair{key: t.Schema.Field(rec, ix.Def.Field), rid: rid})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, ix := range t.Idx {
		want := perIndex[i]
		sort.Slice(want, func(a, b int) bool {
			if want[a].key != want[b].key {
				return want[a].key < want[b].key
			}
			return want[a].rid.Less(want[b].rid)
		})
		j := 0
		ix.Latch.RLock()
		err := ix.Tree.ScanAll(func(k []byte, rid record.RID) error {
			if j >= len(want) {
				return fmt.Errorf("index %s has extra entry %d/%s", ix.Def.Name, keyenc.Int64(k), rid)
			}
			if keyenc.Int64(k) != want[j].key || rid != want[j].rid {
				return fmt.Errorf("index %s entry %d is (%d,%s), heap says (%d,%s)",
					ix.Def.Name, j, keyenc.Int64(k), rid, want[j].key, want[j].rid)
			}
			j++
			return nil
		})
		ix.Latch.RUnlock()
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		if j != len(want) {
			return fmt.Errorf("table %s index %s: scanned %d entries, heap has %d",
				t.Name, ix.Def.Name, j, len(want))
		}
	}
	return nil
}
