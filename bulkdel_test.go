package bulkdel

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"bulkdel/internal/table"
)

// heapTable returns a heap table's table.Table, for tests that inspect its
// indexes directly.
func (tbl *Table) heapTable() *table.Table {
	h, err := tbl.heap()
	if err != nil {
		panic(err)
	}
	return h.t
}

// newBenchDB builds a DB with a table R(A,B,C) of n rows (A=i, B=3i,
// C=i%97), indexed IA (unique) and IB.
func newBenchDB(t *testing.T, n int, opts Options) (*DB, *Table) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IB", Field: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func victims(n, k int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]int64, k)
	for i := range out {
		out[i] = int64(perm[i])
	}
	return out
}

func TestOpenCreateInsertLookup(t *testing.T) {
	db, tbl := newBenchDB(t, 500, Options{})
	if db.Table("R") != tbl || db.Table("missing") != nil {
		t.Fatal("table lookup wrong")
	}
	if tbl.Count() != 500 || tbl.NumFields() != 3 {
		t.Fatalf("count=%d fields=%d", tbl.Count(), tbl.NumFields())
	}
	rows, err := tbl.Lookup(0, 123)
	if err != nil || len(rows) != 1 || rows[0][1] != 369 {
		t.Fatalf("lookup = %v, %v", rows, err)
	}
	names := tbl.IndexNames()
	if len(names) != 2 || names[0] != "IA" || names[1] != "IB" {
		t.Fatalf("index names = %v", names)
	}
	if tbl.IndexHeight("IA") < 1 || tbl.IndexHeight("nope") != 0 {
		t.Fatal("index heights wrong")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("R", 1, 8); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	if len(db.TableNames()) != 1 {
		t.Fatal("table names wrong")
	}
}

func TestBulkDeleteMethodsPublicAPI(t *testing.T) {
	for _, m := range []Method{SortMerge, Hash, HashPartition, Auto} {
		db, tbl := newBenchDB(t, 4000, Options{})
		_ = db
		vs := victims(4000, 800, 3)
		res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Deleted != 800 || res.Victims != 800 {
			t.Fatalf("%v: deleted %d", m, res.Deleted)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", m)
		}
		if !strings.Contains(res.PlanText, "⋈̸") {
			t.Fatalf("%v: plan text missing", m)
		}
		if tbl.Count() != 3200 {
			t.Fatalf("%v: count %d", m, tbl.Count())
		}
		if err := tbl.Check(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, v := range vs[:10] {
			if rows, _ := tbl.Lookup(0, v); len(rows) != 0 {
				t.Fatalf("%v: victim %d survived", m, v)
			}
		}
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	db, tbl := newBenchDB(t, 2000, Options{})
	_ = db
	n, err := tbl.DeleteTraditional(0, victims(2000, 200, 5), true)
	if err != nil || n != 200 {
		t.Fatalf("traditional: %d, %v", n, err)
	}
	n, err = tbl.DeleteDropCreate(0, []int64{1500, 1501})
	if err != nil || n > 2 {
		t.Fatalf("drop&create: %d, %v", n, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExplainAndEstimates(t *testing.T) {
	_, tbl := newBenchDB(t, 1000, Options{})
	for _, m := range []Method{SortMerge, Hash, HashPartition, Auto} {
		out := tbl.Explain(0, m, 0)
		if !strings.Contains(out, "⋈̸") || !strings.Contains(out, "IA") {
			t.Fatalf("explain(%v):\n%s", m, out)
		}
	}
	ests := tbl.EstimateMethods(0, 150, 1<<20)
	if len(ests) < 2 {
		t.Fatalf("estimates = %v", ests)
	}
	for name, d := range ests {
		if d <= 0 {
			t.Fatalf("estimate %s <= 0", name)
		}
	}
}

func TestDeleteRowAndGet(t *testing.T) {
	_, tbl := newBenchDB(t, 100, Options{})
	rid, err := tbl.Insert(500, 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tbl.Get(rid)
	if err != nil || vals[0] != 500 {
		t.Fatalf("get = %v, %v", vals, err)
	}
	if err := tbl.DeleteRow(rid); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tbl.Lookup(0, 500); len(rows) != 0 {
		t.Fatal("deleted row found")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanPublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 50, Options{})
	seen := 0
	err := tbl.Scan(func(rid RID, fields []int64) error {
		if fields[1] != 3*fields[0] {
			t.Fatalf("row %v inconsistent", fields)
		}
		seen++
		return nil
	})
	if err != nil || seen != 50 {
		t.Fatalf("scan: %d rows, %v", seen, err)
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	db, tbl := newBenchDB(t, 6000, Options{})
	vs := victims(6000, 1200, 7)
	// Run a bulk delete to completion, then crash and recover: nothing
	// to roll forward, all data intact.
	if _, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	disk := db.SimulateCrash()
	if _, err := tbl.Insert(9999); err != errCrashed {
		t.Fatalf("use after crash: %v", err)
	}
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkInProgress {
		t.Fatal("completed bulk delete reported in progress")
	}
	tbl2 := db2.Table("R")
	if tbl2 == nil {
		t.Fatal("table lost in recovery")
	}
	if tbl2.Count() != 4800 {
		t.Fatalf("count after recovery = %d", tbl2.Count())
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
	// The recovered database is fully usable, including another bulk
	// delete.
	res, err := tbl2.BulkDelete(0, victims(6000, 6000, 9)[:500], BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted == 0 {
		t.Fatal("second bulk delete deleted nothing")
	}
	if err := tbl2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithoutCatalogFails(t *testing.T) {
	db, _ := newBenchDB(t, 10, Options{DisableWAL: true})
	disk := db.SimulateCrash()
	// Recovery works from the catalog even without a WAL.
	db2, rep, err := Recover(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BulkInProgress || db2.WALEnabled() {
		t.Fatal("no WAL expected")
	}
	if db2.Table("R") == nil {
		t.Fatal("table lost")
	}
}

func TestConcurrentBulkDeleteWithUpdaters(t *testing.T) {
	db, tbl := newBenchDB(t, 8000, Options{})
	_ = db
	vs := victims(8000, 1600, 11)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var inserted []int64
	var insertErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Concurrent updater: inserts brand-new rows while the bulk
		// delete runs. Shared lock blocks it until the critical
		// structures are done; offline-index updates go through
		// side-files.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := int64(100000 + i)
			if _, err := tbl.Insert(v, 3*v, 0); err != nil {
				insertErr = err
				return
			}
			inserted = append(inserted, v)
			time.Sleep(time.Millisecond)
		}
	}()

	res, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge, Concurrent: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if insertErr != nil {
		t.Fatalf("concurrent insert failed: %v", insertErr)
	}
	if res.Deleted != 1600 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	// Every concurrent insert must be fully indexed, and the table must
	// be consistent.
	for _, v := range inserted {
		rows, err := tbl.Lookup(0, v)
		if err != nil || len(rows) != 1 {
			t.Fatalf("concurrent insert %d lost: %v %v", v, rows, err)
		}
		rows, err = tbl.Lookup(1, 3*v)
		if err != nil || len(rows) != 1 {
			t.Fatalf("concurrent insert %d lost in IB: %v %v", v, rows, err)
		}
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if int64(8000-1600+len(inserted)) != tbl.Count() {
		t.Fatalf("count %d with %d inserts", tbl.Count(), len(inserted))
	}
	t.Logf("concurrent inserts: %d, side-file ops replayed: %d", len(inserted), res.SideFileOps)
}

func TestBulkDeleteWithReorganize(t *testing.T) {
	_, tbl := newBenchDB(t, 4000, Options{})
	res, err := tbl.BulkDelete(0, victims(4000, 2800, 13), BulkOptions{
		Method: SortMerge, Reorganize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 2800 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSetDeletePolicy(t *testing.T) {
	_, tbl := newBenchDB(t, 500, Options{})
	tbl.SetDeletePolicy(true)
	if _, err := tbl.DeleteTraditional(0, victims(500, 400, 15), true); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	tbl.SetDeletePolicy(false)
}

func TestDropIndexPublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 100, Options{})
	if err := tbl.DropIndex("IB"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.IndexNames()) != 1 {
		t.Fatal("index not dropped")
	}
	if err := tbl.DropIndex("IB"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestWALDisabledBulkDelete(t *testing.T) {
	db, tbl := newBenchDB(t, 1000, Options{DisableWAL: true})
	if db.WALEnabled() {
		t.Fatal("WAL should be disabled")
	}
	res, err := tbl.BulkDelete(0, victims(1000, 150, 17), BulkOptions{})
	if err != nil || res.Deleted != 150 {
		t.Fatalf("bulk delete without WAL: %d, %v", res.Deleted, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStatsAndReset(t *testing.T) {
	db, _ := newBenchDB(t, 200, Options{})
	if db.DiskStats().Writes == 0 {
		t.Fatal("no writes recorded after load+flush")
	}
	db.ResetDiskStats()
	if db.DiskStats().Writes != 0 {
		t.Fatal("stats not reset")
	}
}

func TestBulkUpdatePublicAPI(t *testing.T) {
	_, tbl := newBenchDB(t, 3000, Options{})
	vs := victims(3000, 600, 19)
	// Raise "salaries": shift field 1 of the victims (predicate on field 0).
	res, err := tbl.BulkUpdate(0, vs, 1, func(v int64) int64 { return v + 1 }, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updated != 600 {
		t.Fatalf("updated %d", res.Updated)
	}
	if res.EntriesMoved != 1200 { // 600 deletes + 600 inserts on IB
		t.Fatalf("entries moved %d", res.EntriesMoved)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	// Spot-check through the updated index.
	for _, v := range vs[:5] {
		rows, err := tbl.Lookup(1, 3*v+1)
		if err != nil || len(rows) != 1 || rows[0][0] != v {
			t.Fatalf("updated row %d not findable via IB: %v %v", v, rows, err)
		}
	}
}

func TestBulkDeleteWithoutAccessIndexPublicAPI(t *testing.T) {
	// Field 2 has no index: the engine falls back to a table scan to
	// locate victims, then proceeds vertically.
	_, tbl := newBenchDB(t, 2000, Options{})
	res, err := tbl.BulkDelete(2, []int64{5, 17}, BulkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 2000; i++ {
		if i%97 == 5 || i%97 == 17 {
			want++
		}
	}
	if res.Deleted != want {
		t.Fatalf("deleted %d, want %d", res.Deleted, want)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsCorruptCatalog(t *testing.T) {
	db, _ := newBenchDB(t, 10, Options{})
	disk := db.SimulateCrash()
	// Scribble over the catalog header.
	junk := make([]byte, 4096)
	if err := disk.WritePage(0, 0, junk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(disk, Options{}); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestEmptyVictimListAllMethodsPublic(t *testing.T) {
	for _, m := range []Method{SortMerge, Hash, HashPartition} {
		_, tbl := newBenchDB(t, 200, Options{})
		res, err := tbl.BulkDelete(0, nil, BulkOptions{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Deleted != 0 || tbl.Count() != 200 {
			t.Fatalf("%v: empty victim list deleted %d", m, res.Deleted)
		}
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// A committed bulk delete drops the row files it staged for recovery (the
// victim list, the RID list and the per-index key lists), so the disk holds
// the same files after any number of statements.
func TestBulkDeleteDropsStagedFiles(t *testing.T) {
	for _, m := range []Method{SortMerge, Hash} {
		db, tbl := newBenchDB(t, 3000, Options{})
		if err := tbl.CreateIndex(IndexOptions{Name: "IC", Field: 2}); err != nil {
			t.Fatal(err)
		}
		files := func() (n int) {
			for _, d := range db.Layout() {
				n += d.Files
			}
			return n
		}
		want := files()
		for round := int64(0); round < 3; round++ {
			victims := make([]int64, 0, 100)
			for v := round * 1000; v < round*1000+100; v++ {
				victims = append(victims, v)
			}
			res, err := tbl.BulkDelete(0, victims, BulkOptions{Method: m})
			if err != nil || res.Deleted != 100 {
				t.Fatalf("%v round %d: %+v, %v", m, round, res, err)
			}
			if got := files(); got != want {
				t.Fatalf("%v round %d: %d files on disk, want %d", m, round, got, want)
			}
		}
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
