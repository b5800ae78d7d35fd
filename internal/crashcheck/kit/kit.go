// Package kit is the shared workload-and-crash scaffolding used by the
// crash-consistency model checker (internal/crashcheck) and by the crash
// tests across internal/core, internal/submit, and internal/nvm, which
// previously each carried their own copy of the same KV transaction
// builders, registries, and crash-catching run helpers.
//
// The kit speaks a single logged KV schema: every builder has a decoder
// registered under its type id, so any workload assembled from kit
// transactions is recoverable by replay. Both epoch flavours are covered —
// the Caracal-style declared-write-set builders (Mk*) and Aria-style
// snapshot-execution builders (Aria*).
package kit

import (
	"encoding/binary"
	"fmt"

	"nvcaracal/internal/core"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/pmem"
)

// Table is the KV table id used by all kit transactions.
const Table = uint32(1)

// Logged transaction type ids (Caracal-style namespace).
const (
	TypeSet uint16 = 0x4B00 + iota
	TypeInsert
	TypeDelete
	TypeRMW
	TypeAbortSet
	TypeTransfer
)

// Aria transaction type ids (separate namespace, same encodings).
const (
	AriaTypeSet uint16 = 0xA400 + iota
	AriaTypeDelete
	AriaTypeRMW
	AriaTypeTransfer
)

func encKV(key uint64, val []byte) []byte {
	b := make([]byte, 8+len(val))
	binary.LittleEndian.PutUint64(b, key)
	copy(b[8:], val)
	return b
}

func decKV(d []byte) (uint64, []byte, error) {
	if len(d) < 8 {
		return 0, nil, fmt.Errorf("kit: short KV input (%d bytes)", len(d))
	}
	return binary.LittleEndian.Uint64(d), d[8:], nil
}

func encPair(a, b uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	return buf
}

func decPair(d []byte) (uint64, uint64, error) {
	if len(d) != 16 {
		return 0, 0, fmt.Errorf("kit: bad pair input (%d bytes)", len(d))
	}
	return binary.LittleEndian.Uint64(d), binary.LittleEndian.Uint64(d[8:]), nil
}

// MkSet updates key to val (the row must exist).
func MkSet(key uint64, val []byte) *core.Txn {
	return &core.Txn{
		TypeID: TypeSet,
		Input:  encKV(key, val),
		Ops:    []core.Op{{Table: Table, Key: key, Kind: core.OpUpdate}},
		Exec: func(ctx *core.Ctx) {
			ctx.Write(Table, key, val)
		},
	}
}

// MkInsert creates key with val.
func MkInsert(key uint64, val []byte) *core.Txn {
	return &core.Txn{
		TypeID: TypeInsert,
		Input:  encKV(key, val),
		Ops:    []core.Op{{Table: Table, Key: key, Kind: core.OpInsert}},
		Exec: func(ctx *core.Ctx) {
			ctx.Insert(Table, key, val)
		},
	}
}

// MkDelete removes key.
func MkDelete(key uint64) *core.Txn {
	return &core.Txn{
		TypeID: TypeDelete,
		Input:  encKV(key, nil),
		Ops:    []core.Op{{Table: Table, Key: key, Kind: core.OpDelete}},
		Exec: func(ctx *core.Ctx) {
			ctx.Delete(Table, key)
		},
	}
}

// MkRMW appends suffix to key's current value (read-modify-write; creates
// a one-byte value if the row is missing its value but exists).
func MkRMW(key uint64, suffix byte) *core.Txn {
	return &core.Txn{
		TypeID: TypeRMW,
		Input:  encKV(key, []byte{suffix}),
		Ops:    []core.Op{{Table: Table, Key: key, Kind: core.OpUpdate}},
		Exec: func(ctx *core.Ctx) {
			cur, _ := ctx.Read(Table, key)
			next := make([]byte, 0, len(cur)+1)
			next = append(next, cur...)
			next = append(next, suffix)
			ctx.Write(Table, key, next)
		},
	}
}

// MkAbortSet declares a write to key but aborts before performing it,
// exercising the deterministic-abort (IGNORE marker) path.
func MkAbortSet(key uint64, val []byte) *core.Txn {
	return &core.Txn{
		TypeID: TypeAbortSet,
		Input:  encKV(key, val),
		Ops:    []core.Op{{Table: Table, Key: key, Kind: core.OpUpdate}},
		Exec: func(ctx *core.Ctx) {
			ctx.Abort()
		},
	}
}

// MkTransfer moves the last byte of from's value onto to's value; it
// aborts when from is empty or either row is missing.
func MkTransfer(from, to uint64) *core.Txn {
	return &core.Txn{
		TypeID: TypeTransfer,
		Input:  encPair(from, to),
		Ops: []core.Op{
			{Table: Table, Key: from, Kind: core.OpUpdate},
			{Table: Table, Key: to, Kind: core.OpUpdate},
		},
		Exec: func(ctx *core.Ctx) {
			src, okS := ctx.Read(Table, from)
			dst, okD := ctx.Read(Table, to)
			if !okS || !okD || len(src) == 0 {
				ctx.Abort()
				return
			}
			moved := src[len(src)-1]
			ctx.Write(Table, from, src[:len(src)-1])
			next := make([]byte, 0, len(dst)+1)
			next = append(next, dst...)
			next = append(next, moved)
			ctx.Write(Table, to, next)
		},
	}
}

// Registry returns a registry with decoders for every kit builder, as
// recovery replay requires.
func Registry() *core.Registry {
	reg := core.NewRegistry()
	reg.Register(TypeSet, func(d []byte, _ *core.DB) (*core.Txn, error) {
		key, val, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return MkSet(key, val), nil
	})
	reg.Register(TypeInsert, func(d []byte, _ *core.DB) (*core.Txn, error) {
		key, val, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return MkInsert(key, val), nil
	})
	reg.Register(TypeDelete, func(d []byte, _ *core.DB) (*core.Txn, error) {
		key, _, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return MkDelete(key), nil
	})
	reg.Register(TypeRMW, func(d []byte, _ *core.DB) (*core.Txn, error) {
		key, val, err := decKV(d)
		if err != nil || len(val) != 1 {
			return nil, fmt.Errorf("kit: bad RMW input: %v", err)
		}
		return MkRMW(key, val[0]), nil
	})
	reg.Register(TypeAbortSet, func(d []byte, _ *core.DB) (*core.Txn, error) {
		key, val, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return MkAbortSet(key, val), nil
	})
	reg.Register(TypeTransfer, func(d []byte, _ *core.DB) (*core.Txn, error) {
		from, to, err := decPair(d)
		if err != nil {
			return nil, err
		}
		return MkTransfer(from, to), nil
	})
	return reg
}

// AriaSet inserts-or-updates key to val.
func AriaSet(key uint64, val []byte) *core.AriaTxn {
	return &core.AriaTxn{
		TypeID: AriaTypeSet,
		Input:  encKV(key, val),
		Exec: func(ctx *core.AriaCtx) {
			ctx.Write(Table, key, val)
		},
	}
}

// AriaDelete removes key.
func AriaDelete(key uint64) *core.AriaTxn {
	return &core.AriaTxn{
		TypeID: AriaTypeDelete,
		Input:  encKV(key, nil),
		Exec: func(ctx *core.AriaCtx) {
			ctx.Delete(Table, key)
		},
	}
}

// AriaRMW appends suffix to key's snapshot value.
func AriaRMW(key uint64, suffix byte) *core.AriaTxn {
	return &core.AriaTxn{
		TypeID: AriaTypeRMW,
		Input:  encKV(key, []byte{suffix}),
		Exec: func(ctx *core.AriaCtx) {
			cur, _ := ctx.Read(Table, key)
			next := make([]byte, 0, len(cur)+1)
			next = append(next, cur...)
			next = append(next, suffix)
			ctx.Write(Table, key, next)
		},
	}
}

// AriaTransfer moves the last byte of from's value onto to's value,
// aborting when impossible.
func AriaTransfer(from, to uint64) *core.AriaTxn {
	return &core.AriaTxn{
		TypeID: AriaTypeTransfer,
		Input:  encPair(from, to),
		Exec: func(ctx *core.AriaCtx) {
			src, okS := ctx.Read(Table, from)
			dst, okD := ctx.Read(Table, to)
			if !okS || !okD || len(src) == 0 {
				ctx.Abort()
				return
			}
			moved := src[len(src)-1]
			ctx.Write(Table, from, src[:len(src)-1])
			next := make([]byte, 0, len(dst)+1)
			next = append(next, dst...)
			next = append(next, moved)
			ctx.Write(Table, to, next)
		},
	}
}

// AriaRegistry returns decoders for the Aria builders.
func AriaRegistry() *core.AriaRegistry {
	reg := core.NewAriaRegistry()
	reg.Register(AriaTypeSet, func(d []byte, _ *core.DB) (*core.AriaTxn, error) {
		key, val, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return AriaSet(key, val), nil
	})
	reg.Register(AriaTypeDelete, func(d []byte, _ *core.DB) (*core.AriaTxn, error) {
		key, _, err := decKV(d)
		if err != nil {
			return nil, err
		}
		return AriaDelete(key), nil
	})
	reg.Register(AriaTypeRMW, func(d []byte, _ *core.DB) (*core.AriaTxn, error) {
		key, val, err := decKV(d)
		if err != nil || len(val) != 1 {
			return nil, fmt.Errorf("kit: bad aria RMW input: %v", err)
		}
		return AriaRMW(key, val[0]), nil
	})
	reg.Register(AriaTypeTransfer, func(d []byte, _ *core.DB) (*core.AriaTxn, error) {
		from, to, err := decPair(d)
		if err != nil {
			return nil, err
		}
		return AriaTransfer(from, to), nil
	})
	return reg
}

// Layout returns a small engine layout sized for crash tests: rows and
// values per core, 256-byte rows, one 512-byte value class.
func Layout(cores int, rowsPerCore, valuesPerCore int64) pmem.Layout {
	lay := pmem.Layout{
		Cores:          cores,
		RowSize:        256,
		RowsPerCore:    rowsPerCore,
		ValueSize:      512,
		ValuesPerCore:  valuesPerCore,
		RingCap:        4 * (rowsPerCore + valuesPerCore),
		LogBytes:       1 << 20,
		Counters:       8,
		ScratchPerCore: 1 << 16,
	}
	if err := lay.Finalize(); err != nil {
		panic(fmt.Sprintf("kit: layout: %v", err))
	}
	return lay
}

// Options returns engine options for crash tests: NVCaracal mode, cache and
// minor GC on, both kit registries installed.
func Options(cores int) core.Options {
	return OptionsSized(cores, 2048, 2048)
}

// OptionsSized is Options with explicit per-core pool sizing.
func OptionsSized(cores int, rowsPerCore, valuesPerCore int64) core.Options {
	return core.Options{
		Cores:          cores,
		Mode:           core.ModeNVCaracal,
		Layout:         Layout(cores, rowsPerCore, valuesPerCore),
		CacheEnabled:   true,
		CacheK:         4,
		CacheOnRead:    true,
		MinorGCEnabled: true,
		Registry:       Registry(),
		AriaRegistry:   AriaRegistry(),
	}
}

// RunUntilCrash runs one Caracal-style epoch, converting an injected
// device crash into a clean return: fired reports whether the fail-point
// fired before the epoch completed. The epoch's background commit (if
// Options.Pipeline is on) is drained inside the protected region, so a
// fail point landing there also reports fired.
func RunUntilCrash(db *core.DB, batch []*core.Txn) (fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvm.ErrInjectedCrash {
				panic(r)
			}
			fired = true
			err = nil
		}
	}()
	_, err = db.RunEpoch(batch)
	db.WaitDurable()
	return false, err
}

// RunFuncUntilCrash runs f with injected-crash conversion: a device
// fail-point panic raised on the calling goroutine — or re-raised there by
// a durability barrier joining the engine's background committer — reports
// fired instead of propagating. It generalizes RunUntilCrash to multi-epoch
// windows, e.g. the pipelined probe window of two overlapped epochs.
func RunFuncUntilCrash(f func() error) (fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvm.ErrInjectedCrash {
				panic(r)
			}
			fired = true
			err = nil
		}
	}()
	return false, f()
}

// Quiesce drains the engine's background commit stage, swallowing the
// sticky re-raised injected crash if the committer was the side that hit
// the fail-point. Call it after a caught injected crash and before
// nvm.Device.Crash: the fail-point fires on exactly one goroutine, and
// under an overlapped commit the surviving side keeps issuing device
// accesses until joined.
func Quiesce(db *core.DB) {
	defer func() {
		if r := recover(); r != nil && r != nvm.ErrInjectedCrash {
			panic(r)
		}
	}()
	db.WaitDurable()
}

// RunAriaUntilCrash is RunUntilCrash for an Aria-flavoured epoch.
func RunAriaUntilCrash(db *core.DB, batch []*core.AriaTxn) (fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvm.ErrInjectedCrash {
				panic(r)
			}
			fired = true
			err = nil
		}
	}()
	_, err = db.RunEpochAria(batch)
	db.WaitDurable()
	return false, err
}

// RecoverUntilCrash attempts a recovery that may itself hit an armed
// fail-point (a double fault). On a clean finish it returns the recovered
// database; fired reports an injected crash interrupted it.
func RecoverUntilCrash(dev *nvm.Device, opts core.Options) (db *core.DB, rep *core.RecoveryReport, fired bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvm.ErrInjectedCrash {
				panic(r)
			}
			db, rep, err = nil, nil, nil
			fired = true
		}
	}()
	db, rep, err = core.Recover(dev, opts)
	return db, rep, false, err
}

// SnapshotKV reads keys [0, maxKey) of the kit table from committed state,
// omitting absent rows.
func SnapshotKV(db *core.DB, maxKey uint64) map[uint64][]byte {
	m := make(map[uint64][]byte)
	for k := uint64(0); k < maxKey; k++ {
		if v, ok := db.Get(Table, k); ok {
			m[k] = v
		}
	}
	return m
}
