package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"bulkdel/internal/buffer"
	"bulkdel/internal/heap"
	"bulkdel/internal/sim"
	"bulkdel/internal/wal"
)

// parallelTarget builds a 3-index target spread over a 4-device array:
// device 0 is the system spindle (heap, WAL, scratch), IA..IC live on
// devices 1..3.
func parallelTarget(t *testing.T, pool *buffer.Pool, n int) *Target {
	t.Helper()
	pool.Disk().ConfigureDevices(4)
	tgt := makeTarget(t, pool, n, []int{0, 1, 2}, []bool{true, false, false})
	for k, ix := range tgt.Indexes {
		if err := pool.Relocate(ix.Tree.ID(), k+1); err != nil {
			t.Fatal(err)
		}
	}
	return tgt
}

func TestParallelMatchesSerial(t *testing.T) {
	const n = 3000
	for _, m := range []Method{SortMerge, Hash, HashPartition} {
		t.Run(m.String(), func(t *testing.T) {
			run := func(parallel int) (*Stats, *Target, map[int64]bool) {
				pool := testPool(256)
				tgt := parallelTarget(t, pool, n)
				victims, set := pickVictims(n, n/6, 77)
				st, err := Execute(tgt, 0, victims, Options{
					Method: m, Memory: 1 << 16, Parallel: parallel,
				})
				if err != nil {
					t.Fatal(err)
				}
				return st, tgt, set
			}
			ser, stgt, sset := run(0)
			par, ptgt, pset := run(4)
			verifyTarget(t, stgt, sset, n)
			verifyTarget(t, ptgt, pset, n)
			if ser.Deleted != par.Deleted {
				t.Fatalf("deleted: serial %d, parallel %d", ser.Deleted, par.Deleted)
			}
			if ser.Schedule != nil || ser.Makespan != ser.Elapsed {
				t.Fatalf("serial run reported a parallel schedule: %+v", ser)
			}
			if par.Schedule == nil || len(par.Schedule.Items) != 2 {
				t.Fatalf("parallel schedule missing or wrong size: %+v", par.Schedule)
			}
			if par.Workers != 2 { // two remaining indexes on two devices
				t.Fatalf("workers = %d, want 2", par.Workers)
			}
			if par.Makespan >= par.Elapsed {
				t.Fatalf("no overlap: makespan %v vs serial-equivalent %v", par.Makespan, par.Elapsed)
			}
			// Per-structure deletion counts must agree pairwise.
			serDel := map[string]int64{}
			for _, ss := range ser.PerStructure {
				serDel[ss.Name] = ss.Deleted
			}
			for _, ss := range par.PerStructure {
				if serDel[ss.Name] != ss.Deleted {
					t.Fatalf("structure %s: serial deleted %d, parallel %d",
						ss.Name, serDel[ss.Name], ss.Deleted)
				}
			}
		})
	}
}

// Same plan + same seed ⇒ identical simulated makespan, elapsed time, and
// virtual schedule, no matter how the goroutines interleaved.
func TestParallelDeterministicMakespan(t *testing.T) {
	const n = 2500
	run := func() *Stats {
		pool := testPool(256)
		tgt := parallelTarget(t, pool, n)
		victims, _ := pickVictims(n, n/5, 13)
		st, err := Execute(tgt, 0, victims, Options{
			Method: SortMerge, Memory: 1 << 16, Parallel: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run()
	if first.Schedule == nil {
		t.Fatal("no schedule reported")
	}
	for i := 0; i < 4; i++ {
		again := run()
		if first.Elapsed != again.Elapsed {
			t.Fatalf("elapsed differs: %v vs %v", first.Elapsed, again.Elapsed)
		}
		if first.Makespan != again.Makespan {
			t.Fatalf("makespan differs: %v vs %v", first.Makespan, again.Makespan)
		}
		if !reflect.DeepEqual(first.Schedule, again.Schedule) {
			t.Fatalf("schedule differs:\n%+v\n%+v", first.Schedule, again.Schedule)
		}
	}
}

// A logged parallel run must keep the §3.2 protocol intact: one
// struct-start/done pair per structure, materialized lists for every
// remaining index, and a log that analyzes as finished.
func TestParallelLoggedProtocol(t *testing.T) {
	const n = 4000
	pool := testPool(2048)
	tgt := parallelTarget(t, pool, n)
	if err := tgt.Heap.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victims, set := pickVictims(n, 900, 5)
	log := wal.Create(pool.Disk())
	st, err := Execute(tgt, 0, victims, Options{
		Method: SortMerge, Log: log, TxID: 7, CheckpointRows: 200, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 900 {
		t.Fatalf("deleted %d", st.Deleted)
	}
	verifyTarget(t, tgt, set, n)
	_, recs, err := wal.Open(pool.Disk(), log.FileID())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[wal.Type]int{}
	for _, r := range recs {
		counts[r.Type]++
	}
	if counts[wal.TStructStart] != 4 || counts[wal.TStructDone] != 4 {
		t.Fatalf("structure framing wrong: %v", counts)
	}
	if counts[wal.TMaterialized] != 3 {
		t.Fatalf("materialized: %v", counts)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || !bs.Finished {
		t.Fatalf("analyze: %+v ok=%v", bs, ok)
	}
}

func TestChooseParallel(t *testing.T) {
	pool := testPool(256)
	tgt := parallelTarget(t, pool, 500)
	// Two remaining indexes on two distinct devices: degree 2 whatever the cap.
	if w := ChooseParallel(tgt, 0, 8); w != 2 {
		t.Fatalf("ChooseParallel cap 8 = %d, want 2", w)
	}
	if w := ChooseParallel(tgt, 0, 2); w != 2 {
		t.Fatalf("ChooseParallel cap 2 = %d, want 2", w)
	}
	if w := ChooseParallel(tgt, 0, 1); w != 1 {
		t.Fatalf("ChooseParallel cap 1 = %d, want 1", w)
	}
	// Collapse every tree onto one device: nothing to overlap.
	for _, ix := range tgt.Indexes {
		if err := pool.Relocate(ix.Tree.ID(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if w := ChooseParallel(tgt, 0, 8); w != 1 {
		t.Fatalf("single device ChooseParallel = %d, want 1", w)
	}
}

// An unlogged run has no way to roll forward, so once its first structure
// is modified a cancellation must be ignored: here it arrives from
// OnStructureDone after the first of three remaining-index passes, while
// the third still waits for a worker. Every index must still be processed.
func TestUnloggedParallelCancelCompletes(t *testing.T) {
	const n = 3000
	pool := testPool(256)
	pool.Disk().ConfigureDevices(4)
	// No index on field 0: the victims are found by a scan, and all three
	// indexes remain, one per device.
	tgt := makeTarget(t, pool, n, []int{1, 2, 1}, []bool{true, false, false})
	indexFiles := map[sim.FileID]bool{}
	for k, ix := range tgt.Indexes {
		if err := pool.Relocate(ix.Tree.ID(), k+1); err != nil {
			t.Fatal(err)
		}
		indexFiles[ix.Tree.ID()] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	victims, set := pickVictims(n, n/6, 31)
	st, err := Execute(tgt, 0, victims, Options{
		Ctx: ctx, Method: SortMerge, Memory: 1 << 16, Parallel: 2,
		OnStructureDone: func(f sim.FileID) {
			if indexFiles[f] {
				once.Do(cancel)
			}
		},
	})
	if err != nil {
		t.Fatalf("unlogged run stopped half-done: %v", err)
	}
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	verifyTarget(t, tgt, set, n)
}

// A logged run may stop between passes: cancelling a parallel
// partitioned-heap fan-out after its first partition stops the statement
// with ErrCancelled, and the online roll-forward finishes the delete.
func TestLoggedPartitionFanOutCancelRollsForward(t *testing.T) {
	const n = 3000
	pool := testPool(2048)
	pool.Disk().ConfigureDevices(5)
	ph, err := heap.CreatePartitioned(pool, testSchema, heap.PartitionSpec{Field: 0, HashParts: 4})
	if err != nil {
		t.Fatal(err)
	}
	partFiles := map[sim.FileID]bool{}
	for i, part := range ph.Parts() {
		if err := pool.Relocate(part.ID(), i+1); err != nil {
			t.Fatal(err)
		}
		partFiles[part.ID()] = true
	}
	tgt := fillTarget(t, pool, ph, n, []int{0, 1}, []bool{true, false})
	if err := tgt.Heap.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range tgt.Indexes {
		if err := ix.Tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	log := wal.Create(pool.Disk())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	victims, set := pickVictims(n, 600, 23)
	_, err = Execute(tgt, 0, victims, Options{
		Ctx: ctx, Method: SortMerge, Log: log, TxID: 9, CheckpointRows: 50, Parallel: 2,
		OnStructureDone: func(f sim.FileID) {
			if partFiles[f] {
				once.Do(cancel)
			}
		},
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	recs, err := log.DurableRecords()
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := wal.AnalyzeBulk(recs)
	if !ok || bs.Finished {
		t.Fatalf("analyze: %+v ok=%v", bs, ok)
	}
	done := 0
	for f := range bs.Done {
		if partFiles[sim.FileID(f)] {
			done++
		}
	}
	if done == 0 || done == len(partFiles) {
		t.Fatalf("%d of %d partitions done at the cancel, want some but not all", done, len(partFiles))
	}
	st, err := Resume(tgt, bs, log, recs, 0, Options{CheckpointRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers > 1 {
		t.Fatalf("roll-forward ran with %d workers", st.Workers)
	}
	verifyTarget(t, tgt, set, n)
}
