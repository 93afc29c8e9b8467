package bulkdel

import (
	"testing"
	"time"
)

// TestLookupInsertInterleaving is the targeted two-statement interleaving
// test for the ROADMAP "transient duplicate under extreme churn" issue.
//
// Findings: the window is NOT the hypothesized tombstone-write vs
// concurrent index-add lost update — side-file appends are atomic
// (Gate.AppendIfOffline), inserts use fresh keys, and a quiesced side-file
// rejects appends instead of dropping them. The real window is a torn leaf
// read: a B-link leaf insert shifts entries right (insertAt) before
// writing the new entry (setLeafEntry), so between the two steps the
// displaced entry exists at both positions. Lookups run under a shared
// table lock only (they don't take updMu), so a reader scanning the same
// leaf during an insert could observe the displaced key twice — a
// unique-index lookup returning 2 rows. The fix is the per-index
// reader/writer latch (table.Index.Latch): updaters hold it exclusively
// across each online tree mutation, index reads hold it shared.
//
// The test parks an insert inside the window via the btree mid-insert test
// hook and issues a unique-index lookup for the displaced key. With the
// latch the lookup blocks until the insert completes and sees exactly one
// row; without it, it deterministically saw two.
func TestLookupInsertInterleaving(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("R", 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Even keys only, so inserting an odd key displaces its successor.
	for i := int64(0); i < 32; i += 2 {
		if _, err := tbl.Insert(i, 3*i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex(IndexOptions{Name: "IA", Field: 0, Unique: true}); err != nil {
		t.Fatal(err)
	}

	// Park the next insert between insertAt and setLeafEntry.
	inWindow := make(chan struct{})
	release := make(chan struct{})
	ix := tbl.heapTable().IndexOnField(0)
	ix.Tree.TestHookMidInsert = func() {
		close(inWindow)
		<-release
	}
	defer func() { ix.Tree.TestHookMidInsert = nil }()

	insDone := make(chan error, 1)
	go func() {
		_, err := tbl.Insert(9, 27) // displaces key 10 within its leaf
		insDone <- err
	}()
	<-inWindow

	// The lookup for the displaced key must not see it twice. With the
	// latch it blocks behind the parked insert; give it time to be
	// genuinely concurrent before releasing the window.
	type lookupRes struct {
		rows [][]int64
		err  error
	}
	lookDone := make(chan lookupRes, 1)
	go func() {
		rows, err := tbl.Lookup(0, 10)
		lookDone <- lookupRes{rows, err}
	}()
	select {
	case res := <-lookDone:
		// Lookup finished while the insert was parked mid-leaf: the
		// latch is not being honored.
		if res.err == nil && len(res.rows) != 1 {
			t.Fatalf("unlatched lookup during insert window: %d rows for unique key 10", len(res.rows))
		}
		t.Fatalf("lookup completed inside the insert window (latch not held), rows=%v err=%v", res.rows, res.err)
	case <-time.After(100 * time.Millisecond):
		// Blocked on the latch, as required.
	}
	close(release)
	if err := <-insDone; err != nil {
		t.Fatal(err)
	}
	res := <-lookDone
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.rows) != 1 || res.rows[0][0] != 10 {
		t.Fatalf("lookup after insert: got %v, want exactly one row for key 10", res.rows)
	}

	// The displaced and inserted keys are both intact.
	rows, err := tbl.Lookup(0, 9)
	if err != nil || len(rows) != 1 {
		t.Fatalf("lookup inserted key 9: rows=%v err=%v", rows, err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}
