package bulkdel

import (
	"encoding/binary"
	"fmt"

	"bulkdel/internal/cc"
	"bulkdel/internal/lsm"
	"bulkdel/internal/record"
	"bulkdel/internal/wal"
)

// The LSM storage backend: lsmStore, the second implementation of the
// store interface behind the public Table API (heapStore, in table.go, is
// the first). An LSM table keys every row on field 0 (upsert semantics —
// inserting an existing key overwrites the row) and stores it in an
// internal/lsm tree: memtable + WAL for the tail, SSTables on the
// simulated disk for the bulk, leveled compaction with delete-aware
// (Lethe-style) triggers for reclamation. Deletes write tombstones — a
// range predicate on field 0 costs a single range tombstone, O(1)
// foreground I/O, no matter how many rows it covers — and the space comes
// back within a bounded number of flushes via the tombstone-TTL
// compaction trigger.
//
// An LSM table has no table.Table: no RIDs (rows are addressed by key),
// no secondary indexes, no MVCC snapshot views and no ⋈̸ bulk-delete
// planner (tombstones make it unnecessary); the heap-only Table methods
// reject it through Table.heap. Readers instead merge the memtable and
// SSTables (point reads under the tree's own latch; scans snapshot their
// sources and merge latch-free, so scan callbacks may re-enter the
// table); deletes still take the engine's exclusive table lock and
// advance the commit epoch, so the statement lifecycle, observability,
// and locking semantics match the heap backend. Mutations under the
// shared lock (inserts, forced compaction) additionally serialize on the
// table's updMu, exactly like heap inserts: seq allocation, the WAL
// append, the memtable apply, and any flush the mutation triggers must
// form one atomic unit, or a concurrent mutation's flush could publish a
// flushed-seq horizon covering a seq whose record is not yet in the
// memtable — WAL replay would then skip it and the write would vanish
// after a crash.

// BackendLSM is the Table.Backend() name of the LSM storage backend.
const BackendLSM = "lsm"

// lsmStore is the LSM backend: the table's rows live in one lsm.Tree.
type lsmStore struct {
	tbl  *Table
	tree *lsm.Tree
}

// Backend reports the table's storage backend: "heap" or "lsm".
func (tbl *Table) Backend() string {
	if _, ok := tbl.store.(*lsmStore); ok {
		return BackendLSM
	}
	return "heap"
}

// lsmDevices returns the data devices SSTables round-robin over: the
// array's data spindles when one is configured, else device 0.
func (db *DB) lsmDevices() []int {
	if db.opts.Devices > 1 {
		out := make([]int, db.opts.Devices)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	return []int{0}
}

// CreateTableLSM adds an LSM-backed table of numFields int64 attributes
// padded to recordSize bytes, keyed on field 0.
func (db *DB) CreateTableLSM(name string, numFields, recordSize int) (*Table, error) {
	schema := record.Schema{NumFields: numFields, Size: recordSize}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	// Backend-specific bounds Schema.Validate has no business knowing:
	// one encoded entry must fit an SSTable data block, and LSM WAL
	// payloads frame the table name with a one-byte length.
	if recordSize > lsm.MaxRecordSize {
		return nil, fmt.Errorf("bulkdel: LSM record size %d exceeds the backend maximum %d", recordSize, lsm.MaxRecordSize)
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("bulkdel: LSM table name is %d bytes; the WAL frame caps names at 255", len(name))
	}
	tbl, err := db.addTable(name, schema, func(tbl *Table) (store, error) {
		return db.openLSM(tbl, lsm.New(db.pool, recordSize, lsm.Options{Devices: db.lsmDevices()})), nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, db.saveCatalog()
}

// openLSM wraps a new or reopened tree as tbl's store. Flushes and
// compactions commit their manifest through the catalog: the new SSTable
// set becomes durable in the same write that the old one is forgotten,
// which is what makes them atomic under a crash.
func (db *DB) openLSM(tbl *Table, tree *lsm.Tree) *lsmStore {
	tree.SetPersist(db.saveCatalog)
	return &lsmStore{tbl: tbl, tree: tree}
}

// lsmPayload frames an LSM WAL record payload: [1B name length][name][rest].
func lsmPayload(name string, rest []byte) []byte {
	p := make([]byte, 1+len(name)+len(rest))
	p[0] = byte(len(name))
	copy(p[1:], name)
	copy(p[1+len(name):], rest)
	return p
}

// splitLSMPayload undoes lsmPayload.
func splitLSMPayload(p []byte) (name string, rest []byte, ok bool) {
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", nil, false
	}
	n := int(p[0])
	return string(p[1 : 1+n]), p[1+n:], true
}

// log appends one LSM mutation record when the WAL is on. The record is
// replayed into the memtable by Recover when its seq is newer than the
// manifest's flushed horizon.
func (s *lsmStore) log(t wal.Type, a, b uint64, rest []byte) error {
	if s.tbl.db.log == nil {
		return nil
	}
	_, err := s.tbl.db.log.Append(t, 0, a, b, lsmPayload(s.tbl.name, rest))
	return err
}

// insert adds (or overwrites) the row keyed on fields[0]. The caller holds
// the shared table lock and updMu, which make NextSeq → WAL append → Put →
// MaybeFlush one atomic unit against the other shared-lock mutators
// (inserts, CompactLSM); see the file comment. Delete statements hold the
// table exclusively, so they cannot interleave here either.
func (s *lsmStore) insert(fields []int64, _ bool) (RID, error) {
	if len(fields) == 0 {
		return record.NilRID, fmt.Errorf("bulkdel: LSM table %s: insert needs at least the key field", s.tbl.name)
	}
	rec, err := s.tbl.schema.Encode(fields)
	if err != nil {
		return record.NilRID, err
	}
	key := fields[0]
	seq := s.tree.NextSeq()
	if err := s.log(wal.TLSMPut, uint64(key), seq, rec); err != nil {
		s.tree.AbandonSeq(seq)
		return record.NilRID, err
	}
	s.tree.Put(key, rec, seq)
	return record.NilRID, s.tree.MaybeFlush()
}

// count counts visible rows via a merged scan; a scan error reports -1.
func (s *lsmStore) count() int64 {
	s.tbl.lock.LockShared()
	defer s.tbl.lock.UnlockShared()
	n, err := s.tree.Count()
	if err != nil {
		return -1
	}
	return n
}

// lookup is a point read on field 0, a filtered merged scan on any other
// field.
func (s *lsmStore) lookup(field int, v int64) ([][]int64, error) {
	if field != 0 {
		return s.lookupRange(field, v, v)
	}
	s.tbl.lock.LockShared()
	defer s.tbl.lock.UnlockShared()
	rec, ok, err := s.tree.Get(v)
	if err != nil || !ok {
		return nil, err
	}
	vals, err := s.tbl.schema.Decode(rec)
	if err != nil {
		return nil, err
	}
	return [][]int64{vals}, nil
}

// lookupRange is a key-range merge on field 0, a filtered merged scan
// otherwise. Results arrive in key order.
func (s *lsmStore) lookupRange(field int, lo, hi int64) ([][]int64, error) {
	if lo > hi {
		return nil, nil
	}
	s.tbl.lock.LockShared()
	defer s.tbl.lock.UnlockShared()
	var out [][]int64
	emit := func(_ int64, rec []byte) error {
		vals, err := s.tbl.schema.Decode(rec)
		if err != nil {
			return err
		}
		out = append(out, vals)
		return nil
	}
	if field == 0 {
		return out, s.tree.ScanRange(lo, hi, emit)
	}
	err := s.tree.Scan(func(key int64, rec []byte) error {
		if v := s.tbl.schema.Field(rec, field); v >= lo && v <= hi {
			return emit(key, rec)
		}
		return nil
	})
	return out, err
}

// scan visits every row in key order. LSM rows have no RIDs; fn receives
// record.NilRID.
func (s *lsmStore) scan(fn func(rid RID, fields []int64) error) error {
	s.tbl.lock.LockShared()
	defer s.tbl.lock.UnlockShared()
	return s.tree.Scan(func(_ int64, rec []byte) error {
		vals, err := s.tbl.schema.Decode(rec)
		if err != nil {
			return err
		}
		return fn(record.NilRID, vals)
	})
}

// bulkDelete turns every victim into a point tombstone. Victims on field 0
// are probed first (so the result counts rows that actually existed and
// absent keys cost no tombstone); other fields collect their matching keys
// with one merged scan.
func (s *lsmStore) bulkDelete(field int, values []int64, opts BulkOptions) (*BulkResult, error) {
	res, err := s.deleteStmt("bulk delete", opts, func() (int64, error) {
		if field != 0 {
			want := make(map[int64]bool, len(values))
			for _, v := range values {
				want[v] = true
			}
			return s.deleteWhere(field, func(v int64) bool { return want[v] })
		}
		var keys []int64
		for _, v := range values {
			_, ok, err := s.tree.Get(v)
			if err != nil {
				return 0, err
			}
			if ok {
				keys = append(keys, v)
			}
		}
		return s.deleteKeys(keys)
	})
	if res != nil {
		res.Victims = len(values)
	}
	return res, err
}

// deleteRange writes one range tombstone for a key range (field 0) and
// point tombstones found by a merged scan for any other field.
func (s *lsmStore) deleteRange(field int, lo, hi int64, opts BulkOptions) (*BulkResult, error) {
	return s.deleteStmt("range delete", opts, func() (int64, error) {
		if field != 0 {
			return s.deleteWhere(field, func(v int64) bool { return v >= lo && v <= hi })
		}
		seq := s.tree.NextSeq()
		var seqBuf [8]byte
		binary.LittleEndian.PutUint64(seqBuf[:], seq)
		if err := s.log(wal.TLSMRangeDel, uint64(lo), uint64(hi), seqBuf[:]); err != nil {
			s.tree.AbandonSeq(seq)
			return 0, err
		}
		s.tree.DeleteRange(lo, hi, seq)
		return -1, nil // blind: covered rows are invisible, count unknown
	})
}

// deleteStmt runs one LSM delete statement: del runs under the exclusive
// table lock and reports the rows it tombstoned; then the tombstones are
// made durable, the commit epoch advances (an LSM delete commits exactly
// like a heap bulk delete does), and the tree may flush or compact if its
// thresholds say so.
func (s *lsmStore) deleteStmt(what string, opts BulkOptions, del func() (int64, error)) (*BulkResult, error) {
	db := s.tbl.db
	stmt, held, err := db.beginStatementTimeout("bulk-delete", s.tbl.name,
		[]cc.Claim{{Table: s.tbl.name, Mode: cc.Exclusive}}, opts.LockWait)
	if err != nil {
		return nil, fmt.Errorf("bulkdel: %s on %s: %w", what, s.tbl.name, err)
	}
	defer db.endStatement(stmt, held)
	n, err := del()
	if err != nil {
		return nil, err
	}
	if db.log != nil {
		if err := db.log.Flush(); err != nil {
			return nil, err
		}
	}
	db.epochs.Commit()
	if err := s.tree.MaybeFlush(); err != nil {
		return nil, err
	}
	return &BulkResult{Deleted: n}, nil
}

// deleteWhere tombstones every row whose field value satisfies match,
// found with one merged scan.
func (s *lsmStore) deleteWhere(field int, match func(int64) bool) (int64, error) {
	var keys []int64
	err := s.tree.Scan(func(key int64, rec []byte) error {
		if match(s.tbl.schema.Field(rec, field)) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return s.deleteKeys(keys)
}

// deleteKeys logs and applies one point tombstone per key.
func (s *lsmStore) deleteKeys(keys []int64) (int64, error) {
	for _, k := range keys {
		seq := s.tree.NextSeq()
		if err := s.log(wal.TLSMDel, uint64(k), seq, nil); err != nil {
			s.tree.AbandonSeq(seq)
			return 0, err
		}
		s.tree.DeletePoint(k, seq)
	}
	return int64(len(keys)), nil
}

func (s *lsmStore) check() error { return s.tree.Check() }

func (s *lsmStore) flush() error { return nil } // see Table.Flush

func (s *lsmStore) explain(field int, _ Method, _ int) string {
	return fmt.Sprintf("LSMDelete(table=%s field=%d)\n  └─ tombstone write (range predicates: one range tombstone; O(1) I/O)\n", s.tbl.name, field)
}

// catalogEntry persists the tree's manifest. Manifest() reads a lock-free
// snapshot published under the tree mutex, so a flush that calls back into
// saveCatalog while holding that mutex cannot deadlock here.
func (s *lsmStore) catalogEntry() catalogTable {
	m := s.tree.Manifest()
	return catalogTable{Name: s.tbl.name, NumFields: s.tbl.schema.NumFields,
		Size: s.tbl.schema.Size, Backend: BackendLSM, LSM: &m}
}

// CompactLSM runs the table's triggered compactions to quiescence, then
// keeps force-compacting until no SSTable carries a tombstone — the
// "space fully reclaimed" fixpoint the benchmark measures. It is a no-op
// on heap tables.
func (tbl *Table) CompactLSM() error {
	s, ok := tbl.store.(*lsmStore)
	if !ok {
		return nil
	}
	tbl.lock.LockShared()
	defer tbl.lock.UnlockShared()
	// Like insert: the forced flush must not interleave with a concurrent
	// insert's NextSeq → Put window, or the published flush horizon could
	// cover a not-yet-applied seq.
	tbl.updMu.Lock()
	defer tbl.updMu.Unlock()
	if err := s.tree.FlushMem(); err != nil {
		return err
	}
	return s.tree.DrainTombstones()
}

// LSMManifest returns the table's current LSM manifest (zero value for
// heap tables) — the level layout tests and tools inspect.
func (tbl *Table) LSMManifest() lsm.Manifest {
	if s, ok := tbl.store.(*lsmStore); ok {
		return s.tree.Manifest()
	}
	return lsm.Manifest{}
}

// replayLSMRecords replays durable LSM WAL records into the freshly
// reopened trees: a record whose seq is at or below the manifest's
// flushed horizon is already inside an SSTable and is skipped; newer ones
// rebuild the memtable exactly as it was at the crash (order inside the
// log does not matter — every record carries its seq, and both memtable
// replacement and tombstone visibility compare seqs, not arrival order).
// Returns the number of records applied.
func (db *DB) replayLSMRecords(recs []wal.Record) int {
	applied := 0
	for _, r := range recs {
		if r.Type != wal.TLSMPut && r.Type != wal.TLSMDel && r.Type != wal.TLSMRangeDel {
			continue
		}
		name, rest, ok := splitLSMPayload(r.Payload)
		if !ok || db.tables[name] == nil {
			continue
		}
		s, ok := db.tables[name].store.(*lsmStore)
		if !ok {
			continue
		}
		tree, seq := s.tree, r.B
		apply := func() { tree.DeletePoint(int64(r.A), seq) }
		switch r.Type {
		case wal.TLSMPut:
			if len(rest) != s.tbl.schema.Size {
				continue
			}
			apply = func() { tree.Put(int64(r.A), append([]byte(nil), rest...), seq) }
		case wal.TLSMRangeDel:
			if len(rest) != 8 {
				continue
			}
			seq = binary.LittleEndian.Uint64(rest)
			apply = func() { tree.DeleteRange(int64(r.A), int64(r.B), seq) }
		}
		tree.NoteReplayedSeq(seq)
		if seq > tree.FlushedSeq() {
			apply()
			applied++
		}
	}
	return applied
}
