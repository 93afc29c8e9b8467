package bulkdel

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// FK-probe race audit: a RESTRICT probe (core.AnyKeyMatch) walks the
// child's index leaf chain while the child table is only share-locked, so
// the child's own online inserts run concurrently. A leaf insert shifts
// entries and then writes the new one — mid-shift the leaf is torn — so the
// probe must serialize against it on the index latch. This test parks a
// child insert inside exactly that window (btree.Tree.TestHookMidInsert)
// and asserts the parent's bulk delete blocks on the probe until the insert
// lands, then sees it and restricts.
func TestRestrictProbeWaitsForChildInsert(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := db.CreateTable("P", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	child, err := db.CreateTable("C", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.CreateIndex(IndexOptions{Name: "pk", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := child.CreateIndex(IndexOptions{Name: "fk", Field: 0}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(child, 0, parent, 0, Restrict); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := parent.Insert(i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := child.Insert(5, 0); err != nil {
		t.Fatal(err)
	}

	// Park the next child insert between the leaf's entry shift and the new
	// entry's write. The inserter holds the index latch across the window.
	ix := child.heapTable().FindIndex("fk")
	inWindow := make(chan struct{})
	release := make(chan struct{})
	ix.Tree.TestHookMidInsert = func() {
		ix.Tree.TestHookMidInsert = nil // the window fires once
		close(inWindow)
		<-release
	}
	defer func() { ix.Tree.TestHookMidInsert = nil }()

	insDone := make(chan error, 1)
	go func() {
		_, err := child.Insert(7, 0) // references the victim key
		insDone <- err
	}()
	<-inWindow

	delDone := make(chan error, 1)
	go func() {
		_, err := parent.BulkDelete(0, []int64{7}, BulkOptions{Concurrent: true})
		delDone <- err
	}()
	select {
	case err := <-delDone:
		t.Fatalf("bulk delete returned (%v) while the child leaf was torn mid-insert", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-insDone; err != nil {
		t.Fatal(err)
	}
	err = <-delDone
	var restricted *ErrRestricted
	if !errors.As(err, &restricted) {
		t.Fatalf("bulk delete after the child insert landed: err=%v, want ErrRestricted "+
			"(the probe must see the committed child row)", err)
	}
	if rows, err := parent.Lookup(0, 7); err != nil || len(rows) != 1 {
		t.Fatalf("restricted delete must leave the parent row: rows=%v err=%v", rows, err)
	}
	if err := child.Check(); err != nil {
		t.Fatal(err)
	}
}

// Stress-shaped regression for the same window: parent bulk deletes with a
// RESTRICT child race the child's own insert/delete churn. Every delete
// must either restrict cleanly or remove exactly its victims; the trees
// stay consistent throughout. Run with -race (the mvcc CI job does): a
// probe reading a leaf without the latch is a data race against the
// inserter before it is ever a wrong answer.
func TestRestrictProbeUnderChildChurn(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := db.CreateTable("P", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	child, err := db.CreateTable("C", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.CreateIndex(IndexOptions{Name: "pk", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := child.CreateIndex(IndexOptions{Name: "fk", Field: 0}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddForeignKey(child, 0, parent, 0, Restrict); err != nil {
		t.Fatal(err)
	}
	const keys = 120
	for i := int64(0); i < keys; i++ {
		if _, err := parent.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		var mine []RID
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if len(mine) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(mine))
				if err := child.DeleteRow(mine[j]); err == nil {
					mine = append(mine[:j], mine[j+1:]...)
				}
				continue
			}
			rid, err := child.Insert(rng.Int63n(keys), int64(i))
			if err != nil {
				t.Error(err)
				return
			}
			mine = append(mine, rid)
		}
	}()

	deleted := make(map[int64]bool)
	for k := int64(0); k < keys; k += 3 {
		_, err := parent.BulkDelete(0, []int64{k}, BulkOptions{Concurrent: k%2 == 0})
		var restricted *ErrRestricted
		switch {
		case err == nil:
			deleted[k] = true
		case errors.As(err, &restricted):
			// The child won the race; the parent row must survive.
		default:
			t.Fatalf("delete key %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()

	for k := int64(0); k < keys; k += 3 {
		rows, err := parent.Lookup(0, k)
		if err != nil {
			t.Fatal(err)
		}
		if deleted[k] && len(rows) != 0 {
			t.Fatalf("key %d deleted but still present", k)
		}
		if !deleted[k] && len(rows) != 1 {
			t.Fatalf("key %d restricted but gone (rows=%d)", k, len(rows))
		}
	}
	if err := parent.Check(); err != nil {
		t.Fatal(err)
	}
	if err := child.Check(); err != nil {
		t.Fatal(err)
	}
}
