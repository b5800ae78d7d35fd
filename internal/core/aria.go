package core

import (
	"fmt"
	"time"

	"nvcaracal/internal/index"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/wal"
)

// This file implements the paper's §7 integration target: Aria-style
// deterministic concurrency control (Lu et al., VLDB 2020) on top of the
// same NVMM dual-version checkpointing substrate. Unlike the Caracal-style
// path (RunEpoch), Aria transactions do NOT declare write sets. Each epoch:
//
//  1. every transaction executes against a snapshot — the state as of the
//     previous epoch — buffering its writes and recording its read set;
//  2. a deterministic conflict-detection pass aborts any transaction that
//     read or wrote a key also written by a smaller-serial-id transaction
//     (RAW and WAW conflicts against the snapshot semantics);
//  3. the surviving transactions' writes are applied, at most one writer
//     per key, through the identical final-write path — one NVMM write per
//     row per epoch, dual-version checkpointing, logging, and recovery all
//     unchanged.
//
// Aborted transactions are returned for resubmission in a later epoch (the
// standard Aria discipline). Epochs of the two flavours can be freely
// interleaved on one database; the input log tags Aria epochs so recovery
// replays them with the same algorithm.

// AriaTxn is a deterministic transaction without a declared write set.
// Exec must be deterministic given the snapshot state and Input.
type AriaTxn struct {
	// TypeID identifies the transaction in the input log (namespaced
	// separately from Caracal-style types).
	TypeID uint16
	// Input is the logged parameter blob for replay.
	Input []byte
	// Exec runs the transaction against an AriaCtx.
	Exec func(ctx *AriaCtx)

	sid     uint64
	aborted bool
}

// SID returns the serial id assigned in the current epoch.
func (t *AriaTxn) SID() uint64 { return t.sid }

// Aborted reports whether the transaction issued a user-level abort during
// the last epoch it executed in. Conflict losers are not user aborts; they
// appear in AriaResult.Deferred instead.
func (t *AriaTxn) Aborted() bool { return t.aborted }

// AriaDecoder reconstructs an AriaTxn from its logged input.
type AriaDecoder func(data []byte, db *DB) (*AriaTxn, error)

// AriaRegistry maps Aria transaction types to decoders.
type AriaRegistry struct {
	decoders map[uint16]AriaDecoder
}

// NewAriaRegistry returns an empty registry.
func NewAriaRegistry() *AriaRegistry {
	return &AriaRegistry{decoders: make(map[uint16]AriaDecoder)}
}

// Register binds a decoder to a type id.
func (r *AriaRegistry) Register(typeID uint16, d AriaDecoder) {
	r.decoders[typeID] = d
}

// Decode reconstructs a transaction of the given type.
func (r *AriaRegistry) Decode(typeID uint16, data []byte, db *DB) (*AriaTxn, error) {
	d, ok := r.decoders[typeID]
	if !ok {
		return nil, fmt.Errorf("core: no aria decoder for txn type %d", typeID)
	}
	return d(data, db)
}

// ariaMarkerType is the reserved record type that tags an epoch's log as
// Aria-flavoured so recovery picks the right replay algorithm.
const ariaMarkerType = uint16(0xFFFF)

// ariaWrite is one buffered write.
type ariaWrite struct {
	data    []byte
	deleted bool
}

// AriaCtx is the execution context of an Aria transaction: reads observe
// the previous epoch's snapshot (plus the transaction's own writes), and
// writes buffer until the commit phase.
type AriaCtx struct {
	db      *DB
	txn     *AriaTxn
	core    int
	epoch   uint64
	aborted bool

	reads  map[index.Key]struct{}
	writes map[index.Key]ariaWrite
}

// SID returns the executing transaction's serial id.
func (c *AriaCtx) SID() uint64 { return c.txn.sid }

// Read returns the value visible in the snapshot, or the transaction's own
// buffered write.
func (c *AriaCtx) Read(table uint32, key uint64) ([]byte, bool) {
	k := index.Key{Table: table, ID: key}
	if w, ok := c.writes[k]; ok {
		if w.deleted {
			return nil, false
		}
		return w.data, true
	}
	c.reads[k] = struct{}{}
	return c.db.readCommitted(c.core, c.epoch, k)
}

// Write buffers an insert-or-update of (table, key).
func (c *AriaCtx) Write(table uint32, key uint64, val []byte) {
	c.writes[index.Key{Table: table, ID: key}] = ariaWrite{data: append([]byte(nil), val...)}
}

// Delete buffers a deletion of (table, key).
func (c *AriaCtx) Delete(table uint32, key uint64) {
	c.writes[index.Key{Table: table, ID: key}] = ariaWrite{deleted: true}
}

// Abort discards the transaction (user-level abort). Unlike the
// Caracal-style path, Aria places no ordering restriction on aborts: the
// write buffer is simply dropped.
func (c *AriaCtx) Abort() { c.aborted = true }

// AriaResult summarizes an Aria epoch.
type AriaResult struct {
	Epoch       uint64
	Committed   int
	UserAborted int
	// ConflictAborted transactions lost a RAW or WAW conflict and must be
	// resubmitted in a later epoch; they are returned in Deferred.
	ConflictAborted int
	Deferred        []*AriaTxn

	ExecTime    time.Duration
	CommitTime  time.Duration
	ElapsedTime time.Duration
}

// RunEpochAria processes one batch with Aria-style deterministic
// concurrency control (see the file comment). It may be interleaved with
// RunEpoch calls on the same database.
func (db *DB) RunEpochAria(batch []*AriaTxn) (AriaResult, error) {
	if err := CheckBatchSize(len(batch)); err != nil {
		return AriaResult{}, err
	}
	// Same entry as RunEpoch: surface a committer that died; the pipeline's
	// join is the pre-init-fence barrier below.
	db.raisePersistPanic()
	start := time.Now()
	epoch := db.epoch.Load() + 1
	res := AriaResult{Epoch: epoch}
	ptask := db.opts.Prof.EpochTask(epoch)
	defer ptask.End()
	db.gate.reset()

	for i, t := range batch {
		t.sid = MakeSID(epoch, uint64(i+1))
		t.aborted = false
	}

	// Log inputs, tagged with the Aria marker; the single init fence below
	// makes them durable before any commit-phase write is visible.
	logStart := time.Now()
	endPhase := db.opts.Prof.Region(obs.PhaseLog.String())
	logged := false
	if db.opts.Mode.logs() && !db.replaying {
		recs := make([]wal.Record, 0, len(batch)+1)
		recs = append(recs, wal.Record{Type: ariaMarkerType})
		for _, t := range batch {
			recs = append(recs, wal.Record{Type: t.TypeID, Data: t.Input})
		}
		if err := db.log.WriteEpochNoFence(epoch, recs); err != nil {
			endPhase()
			return res, err
		}
		logged = true
		db.logBytesTotal += db.log.LastPayloadBytes()
	}
	endPhase()

	logTime := time.Since(logStart)

	// Initialization work shared with the Caracal path: collect last
	// epoch's garbage and evict stale cached versions, with the same
	// coalesced fence between GC phase 1 and phase 2.
	initStart := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhaseInit.String())
	gc := db.majorGCBegin(epoch)
	// Commit join (see RunEpoch): rows are dual-version, so no row write of
	// this epoch may land before the previous epoch's record is durable. The
	// Aria apply phase allocates and rewrites rows strictly after this
	// point. A no-op outside the pipeline.
	db.WaitDurable()
	db.initFence(epoch, logged, gc.pending)
	db.majorGCFinish(epoch, gc)
	db.evictCache(epoch)
	endPhase()
	initTime := time.Since(initStart)

	// Snapshot execution phase. The profiling region covers execution,
	// conflict detection, and the commit applies — the same slice
	// RecordEpoch below reports as the Aria execute phase.
	t1 := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhaseExec.String())
	ctxs := make([]*AriaCtx, len(batch))
	db.parallel(func(w int) {
		for i := w; i < len(batch); i += db.opts.Cores {
			t := batch[i]
			ctx := &AriaCtx{
				db: db, txn: t, core: w, epoch: epoch,
				reads:  make(map[index.Key]struct{}),
				writes: make(map[index.Key]ariaWrite),
			}
			if t.Exec != nil {
				t.Exec(ctx)
			}
			ctxs[i] = ctx
		}
	})
	res.ExecTime = time.Since(t1)

	// Deterministic conflict detection: reserve each written key for its
	// smallest-serial-id non-user-aborted writer, then abort every
	// transaction that read or wrote a key reserved by a smaller sid.
	t2 := time.Now()
	writeRes := make(map[index.Key]uint64)
	for i, ctx := range ctxs {
		if ctx.aborted {
			continue
		}
		sid := batch[i].sid
		for k := range ctx.writes {
			if cur, ok := writeRes[k]; !ok || sid < cur {
				writeRes[k] = sid
			}
		}
	}
	committed := make([]*AriaCtx, 0, len(batch))
	for i, ctx := range ctxs {
		if ctx.aborted {
			batch[i].aborted = true
			res.UserAborted++
			continue
		}
		sid := batch[i].sid
		conflicted := false
		for k := range ctx.writes {
			if writeRes[k] < sid {
				conflicted = true
				break
			}
		}
		if !conflicted {
			for k := range ctx.reads {
				if w, ok := writeRes[k]; ok && w < sid {
					conflicted = true
					break
				}
			}
		}
		if conflicted {
			res.ConflictAborted++
			res.Deferred = append(res.Deferred, batch[i])
			continue
		}
		committed = append(committed, ctx)
	}

	// Commit phase: apply each surviving write through the standard
	// final-write machinery, sharded by owner core. The WAW rule leaves at
	// most one committed writer per key.
	type applyOp struct {
		key index.Key
		sid uint64
		w   ariaWrite
	}
	byOwner := make([][]applyOp, db.opts.Cores)
	for _, ctx := range committed {
		for k, w := range ctx.writes {
			owner := db.ownerOf(k)
			byOwner[owner] = append(byOwner[owner], applyOp{key: k, sid: ctx.txn.sid, w: w})
		}
	}
	db.parallel(func(owner int) {
		for _, op := range byOwner[owner] {
			db.ariaApply(owner, epoch, op.key, op.sid, op.w)
		}
	})
	res.Committed = len(committed)
	res.CommitTime = time.Since(t2)
	endPhase()

	persistStart := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhasePersist.String())
	// Aria epochs carry no lifecycle spans: transactions enter via
	// SubmitAria's snapshot path and the breakdown's stage model (seal ->
	// assign -> execute) does not fit the execute-then-detect flow.
	db.checkpointEpoch(epoch, nil)
	db.releaseEpochState(epoch)
	endPhase()
	db.met.Coordinator().AddCommitted(int64(res.Committed))
	db.met.Coordinator().AddAborted(int64(res.UserAborted + res.ConflictAborted))
	db.epoch.Store(epoch)
	db.met.Coordinator().AddEpoch()
	res.ElapsedTime = time.Since(start)
	// Execution covers the snapshot run plus conflict detection and the
	// commit applies — the Aria analogue of the Caracal execute phase.
	db.obs.RecordEpoch(epoch, logStart, logTime, initTime,
		res.ExecTime+res.CommitTime, time.Since(persistStart))
	db.obs.Attrib().EpochEnd(epoch)
	return res, nil
}

// ariaApply installs one committed write: insert, update, or delete.
func (db *DB) ariaApply(owner int, epoch uint64, key index.Key, sid uint64, w ariaWrite) {
	rs, exists := db.idx.Get(key)
	if w.deleted {
		if !exists {
			return // deleting a nonexistent row is a no-op
		}
		db.met.At(owner).AddPersistent()
		db.dropRow(owner, rs, false)
		return
	}
	if !exists {
		off, err := db.rowPools[owner].Alloc()
		if err != nil {
			panic(fmt.Sprintf("core: aria insert: %v", err))
		}
		r := db.rowRefTag(off, obs.CauseAlloc)
		r.writeHeader(key.Table, key.ID)
		rs = &rowState{nvOff: off, owner: int32(owner)}
		db.idx.Put(key, rs)
		if db.idxLog != nil {
			db.idxPuts[owner] = append(db.idxPuts[owner], pmem.IndexEntry{
				Kind: pmem.IdxPut, Table: key.Table, Key: key.ID, RowOff: off,
			})
		}
	}
	db.met.At(owner).AddPersistent()
	if db.cacheOn() && (!db.opts.CacheHotOnly || rs.cached.Load() != nil) {
		db.installCached(owner, rs, w.data, epoch)
	}
	db.persistFinal(owner, rs, sid, w.data)
}

// readCommitted serves a read from the committed state — the cached
// version or the persistent row — ignoring any in-flight epoch. It is the
// snapshot read of the Aria path and the version-array miss path of the
// Caracal path.
func (db *DB) readCommitted(core int, epoch uint64, key index.Key) ([]byte, bool) {
	rs, ok := db.idx.Get(key)
	if !ok {
		return nil, false
	}
	return db.readCommittedRow(core, epoch, rs)
}

// readCommittedRow is readCommitted for an already-resolved row.
func (db *DB) readCommittedRow(core int, epoch uint64, rs *rowState) ([]byte, bool) {
	if db.cacheOn() {
		if cv := rs.cached.Load(); cv != nil {
			cv.stamp.Store(epoch)
			db.met.At(core).AddCacheHit()
			return cv.data, true
		}
		db.met.At(core).AddCacheMiss()
	}
	r := db.rowRef(rs.nvOff)
	latest := db.rowLatest(r)
	if latest.isNull() {
		return nil, false
	}
	data := r.readValue(latest)
	db.met.At(core).AddRowRead()
	if db.cacheOn() && db.opts.CacheOnRead {
		db.installCached(core, rs, data, epoch)
	}
	return data, true
}
