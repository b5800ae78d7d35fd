package crashcheck

import (
	"fmt"
	"testing"

	"nvcaracal/internal/core"
	"nvcaracal/internal/crashcheck/kit"
)

// TestNoDirtyLineSurvivesCheckpoint requires every line an epoch stores to
// be durable once the epoch has committed: a header store with no
// write-back (the insert step's, persistFinal's v2→v1 move, major GC's
// copy-down) must be covered by the row's last write-back of the epoch.
// A row whose insert aborted, or that was inserted and deleted in one
// epoch, gets no final write to carry its header, so the kv specs end with
// an epoch of both.
func TestNoDirtyLineSurvivesCheckpoint(t *testing.T) {
	for _, cores := range []int{1, 2} {
		for _, spec := range []Spec{
			{Workload: "kv", Seed: 1, Rows: 48, WarmEpochs: 6, TxnsPerEpoch: 24, ValueBytes: 160, MinorGC: true},
			{Workload: "kv", Aria: true, Seed: 2, Rows: 48, WarmEpochs: 6, TxnsPerEpoch: 24, ValueBytes: 160, MinorGC: true},
			{Workload: "kv", Pipeline: true, Seed: 3, Rows: 48, WarmEpochs: 6, TxnsPerEpoch: 24, ValueBytes: 160, MinorGC: true},
			{Workload: "ycsb", Seed: 4, Rows: 64, WarmEpochs: 6, TxnsPerEpoch: 24, ValueBytes: 160, MinorGC: true},
			{Workload: "tpcc", Seed: 5, Rows: 1, WarmEpochs: 6, TxnsPerEpoch: 24, MinorGC: true},
		} {
			spec.Cores = cores
			name := fmt.Sprintf("%s/aria=%v/pipeline=%v/cores=%d", spec.Workload, spec.Aria, spec.Pipeline, cores)
			t.Run(name, func(t *testing.T) {
				sess, err := newSession(spec)
				if err != nil {
					t.Fatal(err)
				}
				dev := sess.newDevice()
				db, err := core.Open(dev, sess.opts)
				if err != nil {
					t.Fatal(err)
				}
				check := func(what string) {
					t.Helper()
					if n := dev.DirtyLines(); n != 0 {
						t.Fatalf("%s: %d lines dirty or staged after the epoch committed", what, n)
					}
				}
				for i, b := range sess.loadBatches() {
					if _, err := db.RunEpoch(b); err != nil {
						t.Fatal(err)
					}
					db.WaitDurable()
					check(fmt.Sprintf("load epoch %d", i+1))
				}
				for le := 1; le <= spec.WarmEpochs; le++ {
					if err := sess.runEpoch(db, le); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("epoch %d", le))
				}
				if spec.Workload != "kv" || spec.Aria {
					return
				}
				abortedInsert := &core.Txn{
					TypeID: kit.TypeInsert,
					Ops:    []core.Op{{Table: kit.Table, Key: kvInsBase - 1, Kind: core.OpInsert}},
					Exec:   func(ctx *core.Ctx) { ctx.Abort() },
				}
				res, err := db.RunEpoch([]*core.Txn{
					abortedInsert,
					kit.MkInsert(kvInsBase-2, []byte("short-lived")),
					kit.MkDelete(kvInsBase - 2),
				})
				if err != nil {
					t.Fatal(err)
				}
				db.WaitDurable()
				if res.Aborted != 1 {
					t.Fatalf("aborted = %d, want the one aborted insert", res.Aborted)
				}
				check("aborted-insert epoch")
				for _, k := range []uint64{kvInsBase - 1, kvInsBase - 2} {
					if _, ok := db.Get(kit.Table, k); ok {
						t.Fatalf("key %d exists after its insert aborted or was deleted", k)
					}
				}
				if err := db.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
