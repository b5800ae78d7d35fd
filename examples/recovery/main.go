// Recovery: exercises the dual-version checkpointing protocol under an
// adversarial crash. A fail-point power-fails the device midway through an
// epoch's persists; recovery repairs any torn version descriptors, reverts
// the allocators to the last checkpoint, and deterministically replays the
// interrupted epoch from the input log. The example then verifies the
// database matches a shadow model.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"nvcaracal"
)

const table = uint32(1)

const (
	txnPut uint16 = 1
	txnApp uint16 = 2
)

func putTxn(key uint64, val []byte, insert bool) *nvcaracal.Txn {
	kind := nvcaracal.OpUpdate
	flag := byte(0)
	if insert {
		kind, flag = nvcaracal.OpInsert, 1
	}
	input := append(binary.LittleEndian.AppendUint64(nil, key), flag)
	input = append(input, val...)
	return &nvcaracal.Txn{
		TypeID: txnPut,
		Input:  input,
		Ops:    []nvcaracal.Op{{Table: table, Key: key, Kind: kind}},
		Exec: func(ctx *nvcaracal.Ctx) {
			ctx.Write(table, key, val)
		},
	}
}

// appendTxn reads a row and appends one byte: replaying it must observe
// exactly the same prior state to produce the same result.
func appendTxn(key uint64, suffix byte) *nvcaracal.Txn {
	input := append(binary.LittleEndian.AppendUint64(nil, key), suffix)
	return &nvcaracal.Txn{
		TypeID: txnApp,
		Input:  input,
		Ops:    []nvcaracal.Op{{Table: table, Key: key, Kind: nvcaracal.OpUpdate}},
		Exec: func(ctx *nvcaracal.Ctx) {
			old, _ := ctx.Read(table, key)
			ctx.Write(table, key, append(append([]byte(nil), old...), suffix))
		},
	}
}

func registry() *nvcaracal.Registry {
	reg := nvcaracal.NewRegistry()
	reg.Register(txnPut, func(d []byte, _ *nvcaracal.DB) (*nvcaracal.Txn, error) {
		return putTxn(binary.LittleEndian.Uint64(d), d[9:], d[8] == 1), nil
	})
	reg.Register(txnApp, func(d []byte, _ *nvcaracal.DB) (*nvcaracal.Txn, error) {
		return appendTxn(binary.LittleEndian.Uint64(d), d[8]), nil
	})
	return reg
}

const keys = 200

func main() {
	cfg := nvcaracal.Config{Registry: registry()}
	db, dev, err := nvcaracal.OpenWithDevice(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Shadow model: what the database must contain if epochs are atomic.
	model := map[uint64][]byte{}

	var loadBatch []*nvcaracal.Txn
	for k := uint64(0); k < keys; k++ {
		v := []byte{byte(k)}
		loadBatch = append(loadBatch, putTxn(k, v, true))
		model[k] = v
	}
	if _, err := db.RunEpoch(loadBatch); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	genEpoch := func() ([]*nvcaracal.Txn, map[uint64][]byte) {
		shadow := map[uint64][]byte{}
		for k, v := range model {
			shadow[k] = append([]byte(nil), v...)
		}
		var batch []*nvcaracal.Txn
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(keys))
			b := byte('a' + rng.Intn(26))
			batch = append(batch, appendTxn(k, b))
			shadow[k] = append(shadow[k], b)
		}
		return batch, shadow
	}

	// Two committed epochs. The second one's write-back count sizes the
	// fail-point below.
	var epochFlushes int64
	for i := 0; i < 2; i++ {
		batch, shadow := genEpoch()
		before := dev.Stats().Flushes
		if _, err := db.RunEpoch(batch); err != nil {
			log.Fatal(err)
		}
		epochFlushes = dev.Stats().Flushes - before
		model = shadow
	}
	fmt.Printf("committed %d epochs\n", db.Epoch())

	// Doom the next epoch with a fail-point halfway through a committed
	// epoch's write-backs: deep enough that the input log commits, short of
	// the epoch checkpoint.
	batch, shadow := genEpoch()
	fmt.Println("arming fail-point and running the doomed epoch...")
	fired := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != nvcaracal.ErrInjectedCrash {
					panic(r)
				}
				fired = true
			}
		}()
		dev.SetFailAfter(epochFlushes / 2)
		db.RunEpoch(batch)
	}()
	if !fired {
		log.Fatalf("the fail-point after %d of ~%d write-backs did not fire", epochFlushes/2, epochFlushes)
	}
	dev.Crash(nvcaracal.CrashStrict, 99)
	fmt.Println("power failed mid-epoch; recovering...")

	db2, rep, err := nvcaracal.Recover(dev, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: checkpoint=%d replayed=%d txns=%d repaired=%d (total %v)\n",
		rep.CheckpointEpoch, rep.ReplayedEpoch, rep.TxnsReplayed, rep.RowsRepaired,
		rep.Total().Round(1000))

	// The doomed epoch either replayed in full or vanished entirely.
	expect := model
	if rep.ReplayedEpoch != 0 {
		expect = shadow
	}
	for k := uint64(0); k < keys; k++ {
		got, ok := db2.Get(table, k)
		if !ok || !bytes.Equal(got, expect[k]) {
			log.Fatalf("key %d mismatch after recovery: got %q want %q", k, got, expect[k])
		}
	}
	fmt.Printf("all %d rows match the shadow model: epoch atomicity held ✓\n", keys)
}
