package crashtest

import (
	"fmt"
	"hash/fnv"

	"bulkdel"
	"bulkdel/internal/sim"
)

// The LSM sweep crashes the LSM backend's whole write path — range-delete
// WAL append, log flush, memtable flush, every compaction, and the
// catalog saves that commit each manifest — at every I/O ordinal. The
// scenario: a durable base of Rows rows in SSTables, then one statement
// sequence (range delete covering the middle third of the keyspace,
// memtable flush, compaction to the no-tombstone fixpoint) swept with a
// power failure at the kth I/O. After recovery exactly two logical states
// are legal — the base, or the base minus the range — and compacting the
// recovered tree must never resurrect a deleted row.

// LSMOrdinalResult reports one LSM crash-and-recover cycle.
type LSMOrdinalResult struct {
	// Ordinal is the I/O (1-based, from statement start) of the crash.
	Ordinal int
	// CrashFired reports whether the sequence reached the ordinal.
	CrashFired bool
	// Replayed is the number of LSM WAL records recovery re-applied.
	Replayed int
	// RangeSurvived reports which legal state recovery landed on: true =
	// the crash predates the durable tombstone, the base is intact.
	RangeSurvived bool
	// Survivors is the row count after recovery.
	Survivors int64
	// ClockUS is the simulated clock after recovery, in microseconds.
	ClockUS int64
	// Err describes an invariant violation ("" = the ordinal passed).
	Err string
}

// LSMSweepResult aggregates an LSM sweep.
type LSMSweepResult struct {
	// TotalIOs the fault-free sequence performs; ordinals range 1..TotalIOs.
	TotalIOs int
	// Ran and Failed count the swept ordinals.
	Ran, Failed int
	// Ordinals holds every per-ordinal result, in sweep order.
	Ordinals []LSMOrdinalResult
}

// Failures returns the results whose invariants failed.
func (s *LSMSweepResult) Failures() []LSMOrdinalResult {
	var out []LSMOrdinalResult
	for _, r := range s.Ordinals {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// Digest fingerprints the sweep's observable behaviour; two sweeps of the
// same Config must produce identical digests (the backend has no
// statement-level goroutines, so LSM sweeps are always deterministic).
func (s *LSMSweepResult) Digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "total=%d\n", s.TotalIOs)
	for _, r := range s.Ordinals {
		fmt.Fprintf(h, "%d:%v:%d:%v:%d:%d:%s\n",
			r.Ordinal, r.CrashFired, r.Replayed, r.RangeSurvived, r.Survivors, r.ClockUS, r.Err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// lsmRange returns the swept delete range: the middle third of the keys.
func lsmRange(rows int) (lo, hi int64) {
	return int64(rows / 3), int64(2*rows/3 - 1)
}

// buildLSMDB constructs the LSM scenario: table R(A,B,C) with A=i, B=3i,
// C=i%7, flushed into SSTables and the WAL tail drained, so the base
// state is durable before any fault is armed.
func buildLSMDB(cfg Config) (*bulkdel.DB, *bulkdel.Table, error) {
	db, err := bulkdel.Open(bulkdel.Options{
		BufferBytes:          cfg.BufferBytes,
		Devices:              cfg.Devices,
		Observer:             cfg.Observer,
		DisableSnapshotReads: true,
	})
	if err != nil {
		return nil, nil, err
	}
	tbl, err := db.CreateTableLSM("R", 3, 64)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cfg.Rows; i++ {
		if _, err := tbl.Insert(int64(i), int64(3*i), int64(i%7)); err != nil {
			return nil, nil, err
		}
	}
	if err := tbl.CompactLSM(); err != nil {
		return nil, nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, nil, err
	}
	return db, tbl, nil
}

// runLSMStatement is the swept sequence: range delete, then flush +
// compaction to the tombstone-free fixpoint.
func runLSMStatement(tbl *bulkdel.Table, rows int) error {
	lo, hi := lsmRange(rows)
	if _, err := tbl.DeleteRange(0, lo, hi, bulkdel.BulkOptions{}); err != nil {
		return err
	}
	return tbl.CompactLSM()
}

// CountLSMIOs runs the sequence once without faults, validates it, and
// returns its I/O count — the sweep's ordinal range.
func CountLSMIOs(cfg Config) (int, error) {
	cfg = cfg.withDefaults()
	db, tbl, err := buildLSMDB(cfg)
	if err != nil {
		return 0, err
	}
	before := db.Disk().IOCount()
	if err := runLSMStatement(tbl, cfg.Rows); err != nil {
		return 0, fmt.Errorf("crashtest: fault-free LSM run failed: %w", err)
	}
	lo, hi := lsmRange(cfg.Rows)
	want := int64(cfg.Rows) - (hi - lo + 1)
	if got := tbl.Count(); got != want {
		return 0, fmt.Errorf("crashtest: fault-free LSM run left %d rows, want %d", got, want)
	}
	if err := tbl.Check(); err != nil {
		return 0, fmt.Errorf("crashtest: fault-free LSM run left the tree inconsistent: %w", err)
	}
	return int(db.Disk().IOCount() - before), nil
}

// RunLSMOrdinal executes one crash-and-recover cycle: fresh scenario,
// crash at the kth sequence I/O, recovery, invariant checks. The returned
// error is reserved for harness failures.
func RunLSMOrdinal(cfg Config, k int) (LSMOrdinalResult, error) {
	cfg = cfg.withDefaults()
	res := LSMOrdinalResult{Ordinal: k}
	db, tbl, err := buildLSMDB(cfg)
	if err != nil {
		return res, err
	}
	plan := sim.NewFaultPlan().CrashAtIO(uint64(k))
	if cfg.TearBytes > 0 {
		if cfg.TearWALOnly {
			if wf, ok := db.WALFile(); ok {
				plan = plan.TearFileWrite(wf, cfg.TearBytes)
			}
		} else {
			plan = plan.TearWrite(cfg.TearBytes)
		}
	}
	db.Disk().SetFaultPlan(plan)

	derr := runLSMStatement(tbl, cfg.Rows)
	switch {
	case derr == nil:
		res.CrashFired = false
	case sim.IsCrash(derr):
		res.CrashFired = true
	default:
		res.Err = fmt.Sprintf("unexpected non-crash error: %v", derr)
		return res, nil
	}

	disk := db.SimulateCrash()
	disk.SetFaultPlan(nil)
	rdb, rep, rerr := bulkdel.Recover(disk, bulkdel.Options{
		BufferBytes:          cfg.BufferBytes,
		DisableSnapshotReads: true,
		Observer:             cfg.Observer,
	})
	if rerr != nil {
		res.Err = fmt.Sprintf("recovery failed: %v", rerr)
		return res, nil
	}
	res.Replayed = rep.LSMReplayed
	res.Err = verifyLSMState(rdb, cfg, &res, "after recovery")
	res.ClockUS = disk.Clock().Microseconds()
	if res.Err != "" {
		return res, nil
	}
	// Reclamation after recovery must not resurrect: draining every
	// tombstone out of the recovered tree has to preserve the logical state
	// the recovery landed on.
	rtbl := rdb.Table("R")
	if err := rtbl.CompactLSM(); err != nil {
		res.Err = fmt.Sprintf("post-recovery compaction failed: %v", err)
		return res, nil
	}
	var after LSMOrdinalResult
	if msg := verifyLSMState(rdb, cfg, &after, "after post-recovery compaction"); msg != "" {
		res.Err = msg
	} else if after.RangeSurvived != res.RangeSurvived || after.Survivors != res.Survivors {
		res.Err = fmt.Sprintf("post-recovery compaction changed state: %d rows (range survived %v) -> %d rows (range survived %v)",
			res.Survivors, res.RangeSurvived, after.Survivors, after.RangeSurvived)
	}
	return res, nil
}

// verifyLSMState checks that the recovered table holds one of the two
// legal states — base, or base minus the deleted range — with every
// surviving row byte-correct and every key unique.
func verifyLSMState(rdb *bulkdel.DB, cfg Config, res *LSMOrdinalResult, when string) string {
	tbl := rdb.Table("R")
	if tbl == nil {
		return "table R missing " + when
	}
	if tbl.Backend() != bulkdel.BackendLSM {
		return fmt.Sprintf("table R recovered with backend %q", tbl.Backend())
	}
	if err := tbl.Check(); err != nil {
		return fmt.Sprintf("consistency check %s: %v", when, err)
	}
	lo, hi := lsmRange(cfg.Rows)
	var total, inRange, others int64
	lastKey := int64(-1)
	err := tbl.Scan(func(_ bulkdel.RID, fields []int64) error {
		a := fields[0]
		if a <= lastKey {
			return fmt.Errorf("scan out of order or duplicate key: %d after %d", a, lastKey)
		}
		lastKey = a
		if a < 0 || a >= int64(cfg.Rows) || fields[1] != 3*a || fields[2] != a%7 {
			return fmt.Errorf("row %v does not match the base formula", fields)
		}
		total++
		if a >= lo && a <= hi {
			inRange++
		} else {
			others++
		}
		return nil
	})
	if err != nil {
		return fmt.Sprintf("scanning recovered tree %s: %v", when, err)
	}
	res.Survivors = total
	rangeSize := hi - lo + 1
	if others != int64(cfg.Rows)-rangeSize {
		return fmt.Sprintf("non-victim rows %s: %d survive, want %d", when, others, int64(cfg.Rows)-rangeSize)
	}
	switch inRange {
	case 0:
		res.RangeSurvived = false
	case rangeSize:
		res.RangeSurvived = true
	default:
		return fmt.Sprintf("range delete torn %s: %d of %d covered rows survive", when, inRange, rangeSize)
	}
	if got := tbl.Count(); got != total {
		return fmt.Sprintf("cached row count %d, scanned %d %s", got, total, when)
	}
	return ""
}

// LSMSweep counts the sequence's I/Os and runs RunLSMOrdinal for every
// ordinal in the configured range.
func LSMSweep(cfg Config) (*LSMSweepResult, error) {
	cfg = cfg.withDefaults()
	total, err := CountLSMIOs(cfg)
	if err != nil {
		return nil, err
	}
	from, to := cfg.From, cfg.To
	if from <= 0 {
		from = 1
	}
	if to <= 0 || to > total {
		to = total
	}
	sw := &LSMSweepResult{TotalIOs: total}
	for k := from; k <= to; k += cfg.Stride {
		r, err := RunLSMOrdinal(cfg, k)
		if err != nil {
			return sw, err
		}
		sw.Ran++
		if r.Err != "" {
			sw.Failed++
		}
		sw.Ordinals = append(sw.Ordinals, r)
	}
	return sw, nil
}
