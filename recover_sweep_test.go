package bulkdel

import (
	"reflect"
	"testing"

	"bulkdel/internal/sim"
)

// layoutFiles lists the IDs of every file on the array, in ID order.
func layoutFiles(db *DB) []sim.FileID {
	var ids []sim.FileID
	for _, d := range db.Layout() {
		for _, f := range d.ByFile {
			ids = append(ids, f.File)
		}
	}
	return ids
}

// crashSweep runs stmt against a fresh build once without a fault to count
// its I/Os, then once per ordinal with a power failure injected there, and
// hands each recovered database to check.
func crashSweep(t *testing.T, build func() (*DB, *Table),
	stmt func(*Table) error, check func(k uint64, db *DB)) {
	t.Helper()
	db, tbl := build()
	before := db.Disk().IOCount()
	if err := stmt(tbl); err != nil {
		t.Fatal(err)
	}
	total := db.Disk().IOCount() - before
	for k := uint64(1); k <= total; k++ {
		db, tbl := build()
		db.Disk().SetFaultPlan(sim.NewFaultPlan().CrashAtIO(k))
		if err := stmt(tbl); !sim.IsCrash(err) {
			t.Fatalf("ordinal %d/%d: statement did not crash: %v", k, total, err)
		}
		disk := db.SimulateCrash()
		disk.SetFaultPlan(nil)
		rdb, _, err := Recover(disk, Options{})
		if err != nil {
			t.Fatalf("ordinal %d/%d: recover: %v", k, total, err)
		}
		check(k, rdb)
	}
}

// A crash after a statement created a row file but before the log record
// naming it was durable used to leave that file on the array for good.
// Recovery must end with exactly the files a clean run ends with.
func TestRecoverDropsOrphanFiles(t *testing.T) {
	vs := victims(900, 300, 7)
	build := func() (*DB, *Table) { return newBenchDB(t, 900, Options{}) }
	stmt := func(tbl *Table) error {
		_, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge})
		return err
	}
	clean, tbl := build()
	if err := stmt(tbl); err != nil {
		t.Fatal(err)
	}
	want := layoutFiles(clean)
	crashSweep(t, build, stmt, func(k uint64, db *DB) {
		if got := layoutFiles(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("ordinal %d: files after recovery %v, clean run %v", k, got, want)
		}
		if got := db.Table("R").Count(); got != 600 && got != 900 {
			t.Fatalf("ordinal %d: %d rows after recovery, want 600 or 900", k, got)
		}
	})
}

// Recovery drops only files nothing names: a clean crash of a database
// holding a heap table, a partitioned table spread over four devices and
// an LSM table with SSTables must come back with every file in place.
func TestRecoverKeepsNamedFiles(t *testing.T) {
	db, _ := newBenchDB(t, 500, Options{Devices: 4})
	parted, err := db.CreateTablePartitioned("P", 3, 64, PartitionSpec{Field: 0, HashParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	lsmTbl, err := db.CreateTableLSM("L", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2000; i++ {
		if _, err := parted.Insert(i, 3*i, i%97); err != nil {
			t.Fatal(err)
		}
		if _, err := lsmTbl.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := parted.CreateIndex(IndexOptions{Name: "PA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := lsmTbl.CompactLSM(); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	sstables := 0
	for _, lvl := range lsmTbl.LSMManifest().Levels {
		sstables += len(lvl)
	}
	if sstables == 0 || parted.Partitions() != 4 {
		t.Fatalf("setup: %d SSTables, %d partitions", sstables, parted.Partitions())
	}
	want := layoutFiles(db)
	rdb, _, err := Recover(db.SimulateCrash(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := layoutFiles(rdb); !reflect.DeepEqual(got, want) {
		t.Fatalf("files after recovery %v, before the crash %v", got, want)
	}
	for _, name := range []string{"R", "P", "L"} {
		if err := rdb.Table(name).Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// A logged sort/merge delete on a hash-partitioned heap runs one pass per
// partition, each with its own structure records and checkpoints. Crash it
// at every I/O: recovery must resume exactly the open partitions and leave
// every victim gone and every survivor intact — or, when the crash beat
// the statement's bulk-start record to the log, leave the table untouched.
func TestPartitionedBulkDeleteCrashSweep(t *testing.T) {
	const n = 800
	vs := victims(n, 240, 5)
	gone := map[int64]bool{}
	for _, v := range vs {
		gone[v] = true
	}
	build := func() (*DB, *Table) {
		return newPartitionedDB(t, n, Options{Devices: 4}, PartitionSpec{Field: 0, HashParts: 4})
	}
	stmt := func(tbl *Table) error {
		_, err := tbl.BulkDelete(0, vs, BulkOptions{Method: SortMerge, CheckpointRows: 16})
		return err
	}
	crashSweep(t, build, stmt, func(k uint64, db *DB) {
		tbl := db.Table("R")
		if err := tbl.Check(); err != nil {
			t.Fatalf("ordinal %d: %v", k, err)
		}
		deleted := tbl.Count() == n-int64(len(vs))
		if !deleted && tbl.Count() != n {
			t.Fatalf("ordinal %d: %d rows after recovery, want %d or %d", k, tbl.Count(), n-len(vs), n)
		}
		for i := int64(0); i < n; i++ {
			rows, err := tbl.Lookup(0, i)
			if err != nil {
				t.Fatalf("ordinal %d: %v", k, err)
			}
			if gone[i] && deleted {
				if len(rows) != 0 {
					t.Fatalf("ordinal %d: victim %d survived", k, i)
				}
			} else if len(rows) != 1 || rows[0][1] != 3*i {
				t.Fatalf("ordinal %d: row %d is %v", k, i, rows)
			}
		}
	})
}
