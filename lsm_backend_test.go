package bulkdel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"bulkdel/internal/lsm"
	"bulkdel/internal/sim"
)

// newLSMDB builds an LSM-backed table R(A,B,C) of n rows (A=i, B=3i,
// C=i%97).
func newLSMDB(t *testing.T, n int, opts Options) (*DB, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Backend() != BackendLSM {
		t.Fatalf("backend = %q", tbl.Backend())
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

func TestLSMBackendBasics(t *testing.T) {
	db, tbl := newLSMDB(t, 2000, Options{})
	if got := tbl.Count(); got != 2000 {
		t.Fatalf("count = %d", got)
	}
	rows, err := tbl.Lookup(0, 123)
	if err != nil || len(rows) != 1 || rows[0][1] != 369 {
		t.Fatalf("point lookup = %v, %v", rows, err)
	}
	// Non-key lookup falls back to a merged scan.
	rows, err = tbl.Lookup(1, 369)
	if err != nil || len(rows) != 1 || rows[0][0] != 123 {
		t.Fatalf("non-key lookup = %v, %v", rows, err)
	}
	// Upsert: re-inserting a key overwrites the row.
	if _, err := tbl.Insert(123, 7, 7); err != nil {
		t.Fatal(err)
	}
	rows, _ = tbl.Lookup(0, 123)
	if len(rows) != 1 || rows[0][1] != 7 {
		t.Fatalf("upsert lost: %v", rows)
	}
	if got := tbl.Count(); got != 2000 {
		t.Fatalf("count after upsert = %d", got)
	}
	// Key-range lookup arrives in key order.
	rows, err = tbl.LookupRange(0, 100, 104)
	if err != nil || len(rows) != 5 || rows[0][0] != 100 || rows[4][0] != 104 {
		t.Fatalf("range lookup = %v, %v", rows, err)
	}
	// Point deletes count only rows that existed.
	res, err := tbl.BulkDelete(0, []int64{5, 6, 7, 999999}, BulkOptions{})
	if err != nil || res.Deleted != 3 {
		t.Fatalf("bulk delete = %+v, %v", res, err)
	}
	if got := tbl.Count(); got != 1997 {
		t.Fatalf("count after point deletes = %d", got)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// The heap-only surface is rejected, not silently wrong (nor a panic).
	// That includes serving as a foreign-key parent: a blind range
	// tombstone does not know its victims, so it cannot enforce the key.
	child, err := db.CreateTable("C", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.CreateIndex(IndexOptions{Name: "CP", Field: 0}); err != nil {
		t.Fatal(err)
	}
	rejected := map[string]error{
		"AddForeignKey":     db.AddForeignKey(child, 0, tbl, 0, Restrict),
		"CreateIndex":       tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0}),
		"AlterPartitioning": tbl.AlterPartitioning(PartitionSpec{Field: 0, HashParts: 2}),
	}
	_, rejected["View"] = tbl.View()
	_, rejected["Get"] = tbl.Get(RID{})
	_, rejected["LookupRIDs"] = tbl.LookupRIDs(0, 1)
	_, rejected["DeleteTraditional"] = tbl.DeleteTraditional(0, []int64{1}, true)
	for call, err := range rejected {
		if err == nil {
			t.Errorf("%s accepted on LSM table", call)
		}
	}
	if est := tbl.EstimateMethods(0, 10, 0); len(est) != 0 {
		t.Errorf("EstimateMethods on LSM table = %v, want no plans", est)
	}
	if n, spec := tbl.Partitions(), tbl.PartitionSpec(); n != 1 || spec.NumParts() != 0 {
		t.Errorf("LSM table reports %d partitions (spec %+v), want an unpartitioned table", n, spec)
	}
	// Explain mentions the tombstone plan rather than the ⋈̸ planner.
	if plan := tbl.Explain(0, Auto, 0); !strings.Contains(plan, "LSM") {
		t.Fatalf("explain = %q", plan)
	}
	_ = db
}

// TestLSMRangeDeleteConstantIO is the backend's headline acceptance: a
// range delete covering 20% of the table costs O(1) foreground I/O — a
// WAL append + flush, never a function of the number of covered rows.
func TestLSMRangeDeleteConstantIO(t *testing.T) {
	db, tbl := newLSMDB(t, 10000, Options{})
	if err := tbl.CompactLSM(); err != nil { // push everything into SSTables
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // drain the buffered WAL insert tail
		t.Fatal(err)
	}
	before := db.Disk().IOCount()
	res, err := tbl.DeleteRange(0, 4000, 5999, BulkOptions{}) // 20% of keys
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != -1 {
		t.Fatalf("range delete should be blind, got Deleted=%d", res.Deleted)
	}
	cost := db.Disk().IOCount() - before
	if cost > 4 {
		t.Fatalf("20%% range delete cost %d I/Os, want O(1)", cost)
	}
	// The covered rows are invisible immediately.
	if got := tbl.Count(); got != 8000 {
		t.Fatalf("count after range delete = %d", got)
	}
	if rows, _ := tbl.Lookup(0, 4500); rows != nil {
		t.Fatalf("deleted key visible: %v", rows)
	}
	if rows, _ := tbl.Lookup(0, 3999); len(rows) != 1 {
		t.Fatal("survivor key missing")
	}
	// Reclamation: draining tombstones leaves a manifest with none.
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	m := tbl.LSMManifest()
	for li, lvl := range m.Levels {
		for _, meta := range lvl {
			if meta.Tombs > 0 || meta.RangeTombs > 0 {
				t.Fatalf("level %d file %d still carries tombstones after drain", li, meta.File)
			}
		}
	}
	if got := tbl.Count(); got != 8000 {
		t.Fatalf("count after drain = %d", got)
	}
}

func TestLSMBackendRecovery(t *testing.T) {
	db, tbl := newLSMDB(t, 3000, Options{})
	// Make some state durable in SSTables...
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	// ...then a post-flush tail: new rows, a point delete, a range delete,
	// all living only in WAL + memtable at the crash.
	for i := 3000; i < 3200; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.BulkDelete(0, []int64{10}, BulkOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteRange(0, 1000, 1499, BulkOptions{}); err != nil {
		t.Fatal(err)
	}

	disk := db.SimulateCrash()
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LSMReplayed == 0 {
		t.Fatal("recovery replayed no LSM records")
	}
	tbl2 := db2.Table("R")
	if tbl2 == nil || tbl2.Backend() != BackendLSM {
		t.Fatal("LSM table lost across recovery")
	}
	// 3000 + 200 inserted - 1 point - 500 range = 2699.
	if got := tbl2.Count(); got != 2699 {
		t.Fatalf("count after recovery = %d", got)
	}
	if rows, _ := tbl2.Lookup(0, 10); rows != nil {
		t.Fatal("point-deleted row resurrected")
	}
	if rows, _ := tbl2.Lookup(0, 1234); rows != nil {
		t.Fatal("range-deleted row resurrected")
	}
	if rows, _ := tbl2.Lookup(0, 3100); len(rows) != 1 {
		t.Fatal("post-flush insert lost")
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
	// A second crash/recover round-trip must be idempotent.
	disk2 := db2.SimulateCrash()
	db3, _, err := Recover(disk2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Table("R").Count(); got != 2699 {
		t.Fatalf("count after second recovery = %d", got)
	}
}

func TestLSMBackendSQLRouting(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// CREATE TABLE ... BACKEND LSM selects the backend per table even when
	// the DB default is the heap.
	tbl, err := db.CreateTableLSM("S", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	heapTbl, err := db.CreateTable("H", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Backend() != BackendLSM || heapTbl.Backend() != "heap" {
		t.Fatalf("backends = %q, %q", tbl.Backend(), heapTbl.Backend())
	}
	// Heap DeleteRange resolves the range and runs the ⋈̸ machinery.
	for i := 0; i < 100; i++ {
		if _, err := heapTbl.Insert(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := heapTbl.DeleteRange(0, 10, 19, BulkOptions{})
	if err != nil || res.Deleted != 10 {
		t.Fatalf("heap DeleteRange = %+v, %v", res, err)
	}
	if got := heapTbl.Count(); got != 90 {
		t.Fatalf("heap count = %d", got)
	}
}

// TestLSMConcurrentInsertsRecoverIntact pins the review's lost-write
// race: concurrent inserts allocate seqs, WAL-log them, and apply them to
// the memtable; a flush triggered by one insert must never publish a
// flushed-seq horizon covering another insert's still-unapplied seq, or
// that row's WAL record is skipped on replay and the row vanishes after
// a crash. Default MemLimit (256) guarantees many flushes during the run.
func TestLSMConcurrentInsertsRecoverIntact(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := int64(w*perWorker + i)
				if _, err := tbl.Insert(k, 3*k, k%97); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Un-flushed WAL appends are volatile by contract (inserts are not
	// durable until the log is forced); the race under test is about rows
	// whose records ARE durable being skipped at replay, so force the tail.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	db2, _, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := db2.Table("R")
	if got := tbl2.Count(); got != workers*perWorker {
		t.Fatalf("count after crash recovery = %d, want %d — concurrent insert lost", got, workers*perWorker)
	}
	for k := int64(0); k < workers*perWorker; k += 97 {
		rows, err := tbl2.Lookup(0, k)
		if err != nil || len(rows) != 1 || rows[0][1] != 3*k {
			t.Fatalf("key %d after recovery: rows=%v err=%v", k, rows, err)
		}
	}
}

// CreateTableLSM must reject schemas and names the on-disk formats cannot
// frame, instead of panicking at the first flush (oversized records) or
// corrupting WAL replay (names longer than the 1-byte length prefix).
func TestLSMCreateTableValidation(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTableLSM("big", 3, lsm.MaxRecordSize+1); err == nil {
		t.Fatalf("record size %d accepted; max is %d", lsm.MaxRecordSize+1, lsm.MaxRecordSize)
	}
	if _, err := db.CreateTableLSM(strings.Repeat("n", 256), 2, 16); err == nil {
		t.Fatal("256-byte table name accepted; WAL frames cap names at 255")
	}
	// The boundary cases stay usable end to end.
	tbl, err := db.CreateTableLSM(strings.Repeat("n", 255), 2, lsm.MaxRecordSize-lsm.MaxRecordSize%8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ { // past MemLimit so a flush runs
		if _, err := tbl.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Count(); got != 300 {
		t.Fatalf("count = %d", got)
	}
}

// A Table.Scan callback on an LSM table may re-enter the table's read
// paths, exactly as it can on the heap backend.
func TestLSMScanCallbackReentry(t *testing.T) {
	_, tbl := newLSMDB(t, 500, Options{})
	visited := 0
	err := tbl.Scan(func(_ RID, fields []int64) error {
		visited++
		rows, err := tbl.Lookup(0, (fields[0]+250)%500)
		if err != nil || len(rows) != 1 {
			t.Fatalf("re-entrant lookup from scan callback: rows=%v err=%v", rows, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 500 {
		t.Fatalf("scan saw %d rows, want 500", visited)
	}
}

// Rebalance migrates heap files and index trees only; an LSM table in the
// catalog is left to its own SSTable placement and must not break the run.
func TestRebalanceWithLSMTable(t *testing.T) {
	db, heapTbl := newBenchDB(t, 2000, Options{Devices: 1})
	lsmTbl, err := db.CreateTableLSM("L", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if _, err := lsmTbl.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.GrowDevices(3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := heapTbl.Check(); err != nil {
		t.Fatal(err)
	}
	if got := lsmTbl.Count(); got != 300 {
		t.Fatalf("LSM count after rebalance = %d", got)
	}
}

// Recover looks up the table of an interrupted heap bulk delete among the
// heap tables only. LSM tables in the catalog are visited in map order, so
// the crash is repeated to give every order a chance.
func TestRecoverHeapBulkDeleteAmongLSMTables(t *testing.T) {
	victims := make([]int64, 0, 100)
	for v := int64(0); v < 500; v += 5 {
		victims = append(victims, v)
	}
	build := func() (*DB, *Table) {
		db, heapTbl := newBenchDB(t, 500, Options{})
		for i := 0; i < 6; i++ {
			tbl, err := db.CreateTableLSM(fmt.Sprintf("L%d", i), 2, 16)
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < 20; k++ {
				if _, err := tbl.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		return db, heapTbl
	}
	db, heapTbl := build()
	before := db.Disk().IOCount()
	if _, err := heapTbl.BulkDelete(0, victims, BulkOptions{Method: SortMerge}); err != nil {
		t.Fatal(err)
	}
	crashAt := (db.Disk().IOCount() - before) / 2
	for run := 0; run < 10; run++ {
		db, heapTbl := build()
		db.Disk().SetFaultPlan(sim.NewFaultPlan().CrashAtIO(crashAt))
		if _, err := heapTbl.BulkDelete(0, victims, BulkOptions{Method: SortMerge}); !sim.IsCrash(err) {
			t.Fatalf("run %d: bulk delete did not crash: %v", run, err)
		}
		disk := db.SimulateCrash()
		disk.SetFaultPlan(nil)
		rdb, rep, err := Recover(disk, Options{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !rep.BulkInProgress || rep.Table != "R" {
			t.Fatalf("run %d: recovery report %+v, want the bulk delete on R rolled forward", run, rep)
		}
		if got := rdb.Table("R").Count(); got != 400 {
			t.Fatalf("run %d: R holds %d rows after recovery, want 400", run, got)
		}
		if got := rdb.Table("L5").Count(); got != 20 {
			t.Fatalf("run %d: L5 holds %d rows after recovery, want 20", run, got)
		}
	}
}
