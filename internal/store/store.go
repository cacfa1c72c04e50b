// Package store is the long-lived dynamic-document engine of the
// reproduction: a Store wraps a grammar-compressed XML document and owns
// its maintenance across an unbounded stream of update operations — the
// production shape of the paper's §III/§V-C protocol that the examples
// and experiments previously hand-rolled.
//
// # Lifecycle
//
// A Store is created around an existing grammar (New takes ownership of
// it) and from then on every mutation goes through Apply/ApplyAll and
// every read through Query/Snapshot/the aggregate helpers. Three
// maintenance concerns are automated:
//
//   - Size-vector caching. Path isolation needs the size vectors
//     size(A,0..k) of every rule, but only the start rule's right-hand
//     side changes under updates (internal/isolate/isolate.go), so the
//     Store computes the full map once and afterwards refreshes just the
//     start rule's vector per operation — O(|RHS_S|) instead of the
//     O(|G|) ValSizes pass per op that update.Apply pays. Non-start
//     entries are invalidated only by recompression, which replaces the
//     grammar wholesale.
//
//   - Batched garbage collection. Deletes strand rules; stranded rules
//     are unreachable from the start symbol and therefore invisible to
//     isolation and queries, so ApplyAll runs one GarbageCollect per
//     batch instead of one per delete.
//
//   - Self-tuning recompression. Updates degrade the grammar; the Store
//     triggers GrammarRePair when |G| grows past Ratio × |G| at the last
//     compression. The effective ratio adapts to the workload: when a
//     recompression barely shrinks the grammar the trigger backs off
//     (up to MaxRatio) so incompressible churn is not recompressed in a
//     tight loop, and when recompression pays off the trigger resets to
//     the configured base. Set Ratio < 0 for manual-only Recompress.
//
// # One recompression engine, run inline or in the background
//
// Every GrammarRePair run — policy-fired or a manual Recompress — goes
// through one engine of three steps: take a private snapshot clone of
// the grammar stamped with its update epoch, compress the snapshot
// (GrammarRePair plus the result's size vectors, touching no Store
// state), and swap the result in under the write lock. Config.Async
// selects only where the middle step runs. Inline, all three steps run
// under the write lock and no write can race the run. In the
// background, the compression runs in a goroutine: writers stall only
// for the clone and the swap (Stats.StallNanos), and the swap protocol
// reconciles whatever raced the run:
//
//   - epoch unchanged → the snapshot still derives the live document;
//     the compressed grammar and its pre-warmed size-vector cache are
//     swapped in (update.Cache.Install — no O(|G|) warm-up under the
//     lock).
//   - epoch advanced by at most MaxTail ops → the ops that raced the
//     compression (the tail, recorded while a run is in flight) are
//     replayed onto the compressed copy, then it is swapped in. A write
//     racing a recompression is therefore never lost.
//   - tail overflow, a replay error, or an intervening manual
//     Recompress → the run is discarded
//     (Stats.DiscardedRecompressions) and the policy simply fires again
//     later.
//
// Both modes produce the same grammar bytes for the same op stream.
//
// # Concurrency: generational zero-copy reads
//
// A Store is safe for concurrent use. Mutations take the write lock;
// reads do not take it at all: every mutation critical section ends by
// publishing an immutable grammar generation through an atomic pointer,
// and Snapshot, Cursor, Query, Size, TreeSize, Elements, CountLabel and
// LabelHistogram serve from the current generation lock-free — a
// Snapshot is a pointer grab, not a copy, and it is invalidation-safe
// forever because a generation any reader has touched is never mutated
// again (the writer moves to a fresh clone; see generation.go for the
// free/shared/reclaimed protocol). A write-only document is never
// cloned at all: the writer reclaims each unread generation and keeps
// mutating it in place. Per-generation aggregate caches (usage vector,
// tree size, |G|) ride the generation, so hot query streams never
// invalidate each other. Stats still takes the read lock — it reports
// writer-side counters. For many documents, see Sharded in this
// package.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/navigate"
	"repro/internal/update"
	"repro/internal/wal"
)

// Config tunes a Store. The zero value selects the defaults below.
type Config struct {
	// MaxRank is the paper's k_in for recompression runs (0 = default 4).
	MaxRank int
	// Ratio triggers auto-recompression when |G| exceeds
	// Ratio × |G_lastCompressed|. 0 selects DefaultRatio; a negative
	// value disables auto-recompression (Recompress stays available).
	Ratio float64
	// MaxRatio caps how far the self-tuning policy may back the trigger
	// off when recompressions stop paying (0 = DefaultMaxRatio).
	MaxRatio float64
	// MinSize suppresses auto-recompression below this grammar size, so
	// small documents are not recompressed on every few ops
	// (0 = DefaultMinSize).
	MinSize int
	// Async selects where the recompression engine runs policy-fired
	// GrammarRePair passes: in a background goroutine, off the write
	// lock, with the result swapped in under the epoch protocol — or,
	// when false, inline under the write lock. It changes nothing else
	// (see the package comment). Manual Recompress always runs inline.
	Async bool
	// MaxTail bounds how many update operations may race an in-flight
	// background recompression and still be replayed onto its result;
	// past the bound the run is discarded instead (0 = DefaultMaxTail,
	// negative = never replay).
	MaxTail int
	// CostStepsPerOp triggers recompression from observed isolation cost
	// rather than grammar growth: when the average naive descent work per
	// operation since the last recompression exceeds this many walk
	// steps, the grammar's unfolded shape has degraded enough to be worth
	// recompressing even though |G| is within Ratio. 0 selects
	// DefaultCostStepsPerOp; negative disables the cost trigger.
	// Inactive (like the whole policy) when Ratio < 0.
	CostStepsPerOp int
	// RefoldSpine triggers incremental re-folding at batch boundaries
	// once the isolation frontier indexes at least this many spine
	// entries: cold segments (untouched for RefoldColdOps operations)
	// are folded back into fresh rules, shrinking the explicit start RHS
	// without a recompression. 0 selects DefaultRefoldSpine; negative
	// disables re-folding. Inactive when Ratio < 0.
	RefoldSpine int
	// RefoldColdOps is how many operations a spine segment must go
	// untouched before it counts as cold (0 = DefaultRefoldColdOps).
	RefoldColdOps int
	// MemoryBudget, when > 0, bounds a Sharded fleet's resident
	// footprint: once the summed ResidentBytes estimate of every live
	// document exceeds the budget, the coldest documents (least recently
	// written or queried) are evicted — in-memory fleets freeze them to
	// their encoded bytes, durable fleets drop them entirely and
	// rehydrate through WAL recovery — and reopen transparently on the
	// next Apply/Get/Query. Ignored by single-document Stores.
	MemoryBudget int64
	// Durability, when non-nil, arms the write-ahead log: committed
	// batches hit disk before ApplyAll acks and snapshots roll in the
	// background (see the Durability type). Durable Stores are built
	// with CreateDurable/OpenDurable (or the Sharded layer's
	// OpenSharded); plain New ignores this field.
	Durability *Durability
}

// Policy defaults; see Config.
const (
	DefaultRatio    = 1.5
	DefaultMaxRatio = 4.0
	DefaultMinSize  = 64
	DefaultMaxTail  = 128
	// DefaultCostStepsPerOp: a healthy indexed descent does a few dozen
	// naive steps; thousands per op mean the walk is grinding through
	// degraded unfold material the index cannot cover.
	DefaultCostStepsPerOp = 4096
	// DefaultRefoldSpine/DefaultRefoldColdOps: re-fold once the index
	// holds a few thousand entries, folding segments no op has touched
	// for a few hundred operations.
	DefaultRefoldSpine   = 4096
	DefaultRefoldColdOps = 256
	// refoldMaxChunks bounds one batch boundary's folding work.
	refoldMaxChunks = 8
	// costTriggerMinOps: the cost trigger needs a sample this large
	// before the steps/op average is trustworthy.
	costTriggerMinOps = 32
)

// payoffThreshold is the minimum shrink factor (size before / size after)
// a recompression must achieve for the policy to keep its current
// trigger; below it the trigger backs off multiplicatively.
const payoffThreshold = 1.15

// Stats is a point-in-time snapshot of a Store's counters.
type Stats struct {
	Ops     int64 // operations applied
	Renames int64
	Inserts int64
	Deletes int64
	Batches int64 // Apply/ApplyAll calls
	// DupBatches counts sequenced batches acked idempotently because
	// their sequence was at or below the watermark — each one is a
	// client retry whose original ack was lost (the exactly-once path
	// doing its job). LastSeq is the current watermark.
	DupBatches int64
	LastSeq    uint64

	Recompressions          int64 // GrammarRePair runs swapped in (auto + manual)
	AsyncRecompressions     int64 // of those, runs compressed off the write lock
	DiscardedRecompressions int64 // runs thrown away (tail overflow / raced)
	ReplayedTailOps         int64 // ops replayed onto background results before swap
	CostRecompressions      int64 // runs fired by the isolation-cost trigger
	// StallNanos is the cumulative write-lock time spent on
	// recompression work: the whole GrammarRePair pass for inline runs,
	// only the snapshot clone and the swap for background ones — the
	// number the background mode exists to shrink.
	StallNanos int64
	// RecompressionInflight reports a background run between snapshot
	// and swap at the time of the Stats call.
	RecompressionInflight bool

	SizeCacheHits    int64 // ops served from the warm size-vector cache
	SizeCacheMisses  int64 // full ValSizes recomputations
	UsageCacheHits   int64 // label queries served from the warm usage cache
	UsageCacheMisses int64 // usage-vector recomputations
	GCRuns           int64 // garbage-collection passes
	RulesCollected   int64 // rules removed by those passes

	// Isolation-frontier counters (internal/isolate's spine index).
	// IsolationSteps is the naive descent work the cost trigger watches;
	// IsolationJumps/IsolationSkipped are the seeks that replaced walks
	// and the entries they skipped; SpineNodes/Spines gauge the live
	// index; the Refold counters record incremental re-folding activity.
	IsolationSteps   int64
	IsolationJumps   int64
	IsolationSkipped int64
	SpineNodes       int
	Spines           int
	Refolds          int64 // batch boundaries that folded ≥ 1 segment
	RefoldedNodes    int64 // spine entries folded back into rules
	RefoldRules      int64 // fresh rules those folds created
	FoldFirstRuns    int64 // recompressions whose input a pre-fold shrank

	Size               int     // current |G|
	PeakSize           int     // max |G| observed at any batch boundary
	LastCompressedSize int     // |G| right after the last recompression
	EffectiveRatio     float64 // current self-tuned trigger ratio
	// ResidentBytes is the memory-tier footprint estimate of the live
	// document (see Store.ResidentBytes).
	ResidentBytes int64

	// Elements is the document's element count. When the derived tree is
	// too large for int64 (exponentially compressing grammars) Saturated
	// is true and Elements is 0 — never a bogus huge number.
	Elements  int64
	Saturated bool

	// Durability counters; all zero for in-memory Stores.
	Durable    bool
	WALAppends int64 // acked batches appended to the log
	WALBytes   int64 // their framed on-disk size
	WALSyncs   int64 // fsyncs on the append + snapshot paths
	FsyncNanos int64 // wall time inside those fsyncs
	Snapshots  int64 // snapshots published over this Store's lifetime
	// WALBroken reports a write-path durability failure: applied state
	// and disk have diverged and every later write fails fast until
	// the document is reopened through recovery.
	WALBroken        bool
	SnapshotFailures int64
	// Recovery results, set once at OpenDurable time.
	RecoveredOps         int64 // WAL tail ops replayed at open
	TruncatedTailRecords int64 // unacked torn records dropped at open
	SnapshotsCorrupt     int64 // corrupt snapshots skipped at open
}

// Store is a grammar-compressed document under a stream of updates. See
// the package comment for the lifecycle.
type Store struct {
	mu    sync.RWMutex
	g     *grammar.Grammar
	cache update.Cache

	// pub is the read half of the Store: the current published
	// generation (immutable grammar + generation-owned aggregate
	// caches), replaced at the end of every mutation critical section
	// and acquired by readers without the lock. See generation.go.
	pub atomic.Pointer[generation]

	// usageHits/usageMisses count label-query cache traffic across all
	// generations; the cached vectors themselves live on the generation.
	usageHits, usageMisses atomic.Int64

	cfg      Config
	effRatio float64 // current trigger; self-tunes within [base, MaxRatio]

	lastCompressed int
	peakSize       int
	// sizeRest is |G| minus the start rule's RHS edges. Between the
	// events that mint or delete rules (GC, re-folding, recompression —
	// each refreshes it) updates mutate only the start rule, so the
	// batch policy reads |G| as sizeRest plus a walk of the start RHS
	// alone instead of a full O(|G|) pass per batch.
	sizeRest  int
	pendingGC bool

	// Recompression engine state (all guarded by mu). gen counts grammar
	// swaps (inline and background): a background swap whose recorded
	// gen no longer matches arrived after a manual Recompress replaced
	// the grammar and must be discarded regardless of epochs. While a
	// background run is in flight, every applied op is also appended to
	// tail (up to maxTail) so the swap can replay the race instead of
	// wasting the compression.
	inflight     bool
	gen          uint64
	tail         []update.Op
	tailOverflow bool
	// activeRuns counts background goroutines between launch and the end
	// of their completion; runsDone broadcasts every decrement. A plain
	// WaitGroup would be misuse here: Wait may run concurrently with an
	// Add-from-zero triggered by a still-active writer.
	activeRuns int
	runsDone   *sync.Cond

	// compress is the GrammarRePair entry point, handed the run's private
	// snapshot to compress in place; tests inject a slow or instrumented
	// compressor to pin the swap protocol deterministically.
	compress func(*grammar.Grammar, core.Options) (*grammar.Grammar, *core.Stats)

	// Cost-trigger baseline: the frontier counters at the last
	// recompression, so the trigger watches steps/op since then.
	costBaseSteps int64
	costBaseOps   int64

	// Durability state (all guarded by mu; nil wl = in-memory Store).
	// walPos counts ops durably appended; it tracks the grammar's
	// update epoch through epochBase (walPos == epoch + epochBase while
	// the log is healthy — snapshot-decoded grammars restart their
	// epoch at zero, the base reconciles them). walBroken is the sticky
	// first WAL failure: applied memory and disk have diverged, so
	// every later write fails fast until reopen-through-recovery.
	closed           bool
	wl               *wal.Log
	walPos           int64
	epochBase        int64
	walBroken        error
	lastSnapPos      int64 // walPos covered by the newest published snapshot
	snapEvery        int64
	snapInflight     bool
	snapshotFailures int64
	recovered        wal.RecoveryStats

	// Exactly-once retry state (guarded by mu): lastSeq is the highest
	// client batch sequence applied (persisted with each WAL record and
	// snapshot, restored at OpenDurable); dupBatches counts sequenced
	// batches acked idempotently without re-applying.
	lastSeq    uint64
	dupBatches int64

	ops, renames, inserts, deletes int64
	batches                        int64
	recompressions                 int64
	asyncRecompressions            int64
	discardedRecompressions        int64
	replayedTailOps                int64
	costRecompressions             int64
	refolds, refoldedNodes         int64
	refoldRules                    int64
	foldFirstRuns                  int64
	stallNanos                     int64
	gcRuns, rulesCollected         int64
}

// maxTail resolves the configured replay bound.
func (s *Store) maxTail() int {
	switch {
	case s.cfg.MaxTail < 0:
		return 0
	case s.cfg.MaxTail == 0:
		return DefaultMaxTail
	}
	return s.cfg.MaxTail
}

// New wraps a grammar in a Store, taking ownership: the caller must not
// mutate g afterwards (reads through Query/Snapshot instead).
func New(g *grammar.Grammar, cfg ...Config) *Store {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	if c.Ratio == 0 {
		c.Ratio = DefaultRatio
	}
	if c.MaxRatio == 0 {
		c.MaxRatio = DefaultMaxRatio
	}
	if c.MaxRatio < c.Ratio {
		c.MaxRatio = c.Ratio
	}
	if c.MinSize == 0 {
		c.MinSize = DefaultMinSize
	}
	size := g.Size()
	s := &Store{
		g:              g,
		cfg:            c,
		effRatio:       c.Ratio,
		lastCompressed: size,
		peakSize:       size,
		compress:       core.CompressInPlace,
	}
	s.runsDone = sync.NewCond(&s.mu)
	s.sizeRest = size - s.startEdgesLocked()
	// Warm the size-vector cache while no reader can hold the lock yet,
	// so TreeSize/Elements/Stats are O(1) from the first call. On error
	// (invalid grammar) the cache stays cold and the first Apply
	// surfaces the problem.
	s.cache.Sizes(g)
	// Publish generation zero so readers never observe a nil pointer.
	// New's ownership contract becomes load-bearing here: the caller's g
	// is frozen from this point on.
	s.publishLocked()
	return s
}

// Apply performs one update operation.
func (s *Store) Apply(op update.Op) error {
	return s.ApplyAll([]update.Op{op})
}

// ApplyAll performs a batch of operations: one shared size-vector cache
// across the batch, one garbage collection at the end, one
// recompression-policy check at the batch boundary. On a durable Store
// the committed prefix is appended to the write-ahead log — and, per
// the fsync policy, on disk — before the call returns: a batch that
// acks survives a crash. A WAL failure outranks an in-batch apply
// error in the return value (whatever applied in memory, the batch is
// NOT durable) and breaks the write path until the document is
// reopened through recovery.
func (s *Store) ApplyAll(ops []update.Op) error {
	return s.ApplyAllSeq(ops, 0)
}

// ApplyAllSeq is ApplyAll with an exactly-once batch sequence number
// (0 = unsequenced, plain ApplyAll semantics). Sequences make network
// retry safe: a client that lost its connection mid-ack re-sends the
// batch under the same sequence, and the store — which tracks the last
// applied sequence, persisted with the WAL batch record — acks the
// duplicate idempotently without re-applying it. A sequence more than
// one past the watermark is a gap (a lost batch between client and
// store) and is rejected without applying anything. The sequence is
// consumed only when at least one op commits, so a batch rejected
// whole (validation error on op 0) leaves the watermark unchanged and
// exactly matches what the WAL recorded.
func (s *Store) ApplyAllSeq(ops []update.Op, seq uint64) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.walBroken != nil {
		// Fail fast BEFORE applying: memory already diverged from disk
		// once; applying more ops would widen the divergence.
		return fmt.Errorf("store: wal broken (reopen to recover): %w", s.walBroken)
	}
	if seq > 0 {
		if seq > wal.MaxBatchSeq {
			return fmt.Errorf("store: batch sequence %d out of range", seq)
		}
		if seq <= s.lastSeq {
			// Already applied (and, on a durable Store, logged): a retry
			// of a batch whose ack was lost. Ack again, apply nothing.
			s.dupBatches++
			return nil
		}
		if seq != s.lastSeq+1 {
			return fmt.Errorf("%w: batch sequence %d, store is at %d", ErrSeqGap, seq, s.lastSeq)
		}
	}
	s.batches++
	var applyErr error
	committed := len(ops)
	for i := range ops {
		if err := s.applyLocked(ops[i]); err != nil {
			// Ops before i are committed (and batch maintenance ran);
			// the index makes the partial state diagnosable.
			applyErr = fmt.Errorf("store: op %d of %d: %w", i, len(ops), err)
			committed = i
			break
		}
	}
	walErr := s.appendWALLocked(ops[:committed], seq)
	if seq > 0 && committed > 0 && walErr == nil {
		s.lastSeq = seq
	}
	s.finishBatchLocked()
	// Publish before the snapshot check so the snapshot path can pin the
	// just-published generation instead of cloning the grammar. The
	// publish happens even on a WAL failure: whatever applied in memory
	// is the state readers must see.
	s.publishLocked()
	if walErr != nil {
		return walErr
	}
	s.maybeSnapshotLocked()
	return applyErr
}

// LastSeq returns the exactly-once watermark: the highest batch
// sequence number applied (0 if none ever carried one). A reconnecting
// client resumes its per-document numbering from here.
func (s *Store) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastSeq
}

func (s *Store) applyLocked(op update.Op) error {
	s.ensurePrivateLocked()
	stranded, err := update.ApplyCached(s.g, op, &s.cache)
	if err != nil {
		return err
	}
	if s.inflight {
		// A recompression is racing this write. Record the op so the
		// completion can replay it onto the compressed result; past the
		// bound, stop recording and mark the run for discard.
		if !s.tailOverflow && len(s.tail) < s.maxTail() {
			s.tail = append(s.tail, op)
		} else {
			s.tailOverflow = true
		}
	}
	s.pendingGC = s.pendingGC || stranded
	s.ops++
	switch op.Kind {
	case update.Rename:
		s.renames++
	case update.Insert:
		s.inserts++
	case update.Delete:
		s.deletes++
	}
	return nil
}

// finishBatchLocked runs the deferred garbage collection and the
// recompression/re-fold policy at a batch boundary. (Usage staleness
// needs no handling here: usage vectors are cached per generation, and
// the batch publishes a fresh generation right after this returns.)
func (s *Store) finishBatchLocked() {
	size := s.gcLocked()
	if size < 0 {
		size = s.sizeRest + s.startEdgesLocked()
	}
	if size > s.peakSize {
		s.peakSize = size
	}
	if s.cfg.Ratio < 0 {
		return
	}
	fire := size >= s.cfg.MinSize && float64(size) > s.effRatio*float64(s.lastCompressed)
	costFired := false
	if !fire && s.costTriggerLocked() {
		// The grammar is within the size budget but its unfolded shape
		// makes isolation grind: recompress anyway.
		fire = true
		costFired = true
	}
	if fire {
		// A background firing is absorbed while a run is in flight; only
		// a started run counts as a cost-triggered recompression, or the
		// counter would inflate by one per batch boundary until the
		// in-flight run lands.
		if _, started := s.recompressLocked(costFired, s.cfg.Async); started && costFired {
			s.costRecompressions++
		}
		return
	}
	s.refoldLocked()
}

// costTriggerLocked reports whether observed isolation cost — naive
// descent steps per operation since the last recompression — exceeds
// the configured budget.
func (s *Store) costTriggerLocked() bool {
	if s.cfg.CostStepsPerOp < 0 {
		return false
	}
	budget := int64(s.cfg.CostStepsPerOp)
	if budget == 0 {
		budget = DefaultCostStepsPerOp
	}
	opsSince := s.ops - s.costBaseOps
	if opsSince < costTriggerMinOps {
		return false
	}
	stepsSince := s.cache.FrontierStats().Steps - s.costBaseSteps
	return stepsSince/opsSince > budget
}

// resetCostBaselineLocked re-anchors the cost trigger after a
// recompression (the unfolded shape it measured is gone).
func (s *Store) resetCostBaselineLocked() {
	s.costBaseSteps = s.cache.FrontierStats().Steps
	s.costBaseOps = s.ops
}

// refoldLocked runs one bounded incremental re-folding pass when the
// isolation frontier has grown past the configured spine budget: cold
// indexed segments fold back into fresh rules, shrinking the explicit
// start RHS (and every future clone and recompression input) without
// a GrammarRePair run. Document content is untouched, so no epoch bump
// — an in-flight background recompression swaps in regardless, which
// simply discards the fold's rules along with the rest of the degraded
// grammar.
func (s *Store) refoldLocked() {
	if s.cfg.RefoldSpine < 0 {
		return
	}
	minSpine := s.cfg.RefoldSpine
	if minSpine == 0 {
		minSpine = DefaultRefoldSpine
	}
	if s.cache.FrontierStats().Entries < minSpine {
		return
	}
	coldOps := int64(s.cfg.RefoldColdOps)
	if coldOps == 0 {
		coldOps = DefaultRefoldColdOps
	}
	s.foldLocked(coldOps, refoldMaxChunks)
}

// foldFirstLocked re-folds every cold spine run back into fresh rules
// right before a recompression consumes the grammar: GrammarRePair's
// pass is O(input size), and the unfolded chains the frontier indexes
// are exactly the material folding removes — so folding first shrinks
// the compressor's input (and the run's snapshot clone) without
// changing the document. Age and chunk budgets are waived (coldOps 0,
// unbounded chunks): everything foldable folds, since the recompression
// invalidates the index anyway. A no-op when re-folding is disabled or
// the frontier is empty/naive.
//
// Only COST-triggered recompressions fold first. The spine index is a
// cache whose contents depend on reader activity (a reader pinning a
// generation forces the writer to clone and retire the memo), so a
// fold injects that history into the compressor's input. The cost
// trigger is already reader-sensitive by nature — it measures observed
// descent work — but the ratio trigger and manual Recompress are pure
// functions of the op stream, and must stay byte-deterministic no
// matter who read what (pinned by TestShardedDifferentialConcurrency's
// concurrent-vs-sequential byte equality).
func (s *Store) foldFirstLocked() {
	if s.cfg.RefoldSpine < 0 {
		return
	}
	if s.foldLocked(0, 1<<30) > 0 {
		s.foldFirstRuns++
	}
}

// foldLocked folds up to maxChunks spine segments untouched for coldOps
// operations back into fresh rules, books the result and returns the
// number of folds. Folding mints rules — a mutation — so the grammar is
// privatized first; if a reader forces a clone there, the clone retired
// the memo and the Refold is a harmless no-op.
func (s *Store) foldLocked(coldOps int64, maxChunks int) int {
	s.ensurePrivateLocked()
	folds, entries := s.cache.Refold(s.g, coldOps, maxChunks)
	if folds > 0 {
		s.refolds++
		s.refoldRules += int64(folds)
		s.refoldedNodes += int64(entries)
		// Folding minted rules, so the incremental |G| split moved.
		s.sizeRest = s.g.Size() - s.startEdgesLocked()
	}
	return folds
}

// recompressRun is one pass of the recompression engine: a private
// snapshot of the grammar, stamped with the swap generation and update
// epoch it was taken at, and — once compress has run — the compressed
// grammar with its pre-computed size vectors.
type recompressRun struct {
	snap       *grammar.Grammar
	compressor func(*grammar.Grammar, core.Options) (*grammar.Grammar, *core.Stats)
	opt        core.Options
	gen, epoch uint64
	background bool

	g     *grammar.Grammar
	st    *core.Stats
	sizes *grammar.SizeTable
	err   error
}

// recompressLocked runs the engine once: snapshot, compress, swap.
// Inline (background false) all three steps run under the held write
// lock, no write can race the run, and its stats are returned. In the
// background only the snapshot is taken here — the one writer-visible
// stall besides the swap — and a goroutine compresses it off the lock,
// then retakes the lock to swap. At most one background run is in
// flight per Store: a firing while one is running is absorbed (false),
// and the grammar just keeps growing until its swap lands.
func (s *Store) recompressLocked(foldFirst, background bool) (*core.Stats, bool) {
	if background && s.inflight {
		return nil, false
	}
	start := time.Now()
	r := s.beginRecompressLocked(foldFirst, background)
	if !background {
		r.compress()
		s.swapLocked(r)
		s.stallNanos += time.Since(start).Nanoseconds()
		return r.st, true
	}
	s.stallNanos += time.Since(start).Nanoseconds()
	s.activeRuns++
	go func() {
		r.compress()
		s.mu.Lock()
		// Writers are only stalled while the lock is actually held —
		// waiting for it is this goroutine's problem, not theirs — so the
		// stall clock restarts here.
		start := time.Now()
		s.swapLocked(r)
		s.stallNanos += time.Since(start).Nanoseconds()
		s.activeRuns--
		s.runsDone.Broadcast()
		s.mu.Unlock()
	}()
	return nil, true
}

// beginRecompressLocked folds first when asked — shrinking both the
// clone and the compressor's input — then takes the run's one snapshot
// clone and stamps it. A background run also starts recording the tail
// of writes that race it.
func (s *Store) beginRecompressLocked(foldFirst, background bool) *recompressRun {
	if foldFirst {
		s.foldFirstLocked()
	}
	snap := s.g.Clone()
	if background {
		s.inflight = true
		s.tail = s.tail[:0]
		s.tailOverflow = false
	}
	return &recompressRun{
		snap:       snap,
		compressor: s.compress,
		opt:        core.Options{MaxRank: s.cfg.MaxRank},
		gen:        s.gen,
		epoch:      snap.Epoch(),
		background: background,
	}
}

// compress runs GrammarRePair on the run's private snapshot and
// pre-computes the result's size vectors. It touches no Store state, so
// a background run calls it off the lock.
func (r *recompressRun) compress() {
	r.g, r.st = r.compressor(r.snap, r.opt)
	r.sizes, r.err = r.g.ValSizes()
}

// swapLocked runs the swap protocol of the package comment under the
// write lock, with a compressed run in hand; an inline run always finds
// its epoch unchanged. Every swap then does the same bookkeeping:
// publish, re-anchor the cost trigger, count, reset the size baseline
// and tune the policy.
func (s *Store) swapLocked(r *recompressRun) {
	var tail []update.Op
	overflow := false
	if r.background {
		s.inflight = false
		tail, overflow = s.tail, s.tailOverflow
		s.tail = nil
	}
	if r.gen != s.gen || r.err != nil || overflow {
		s.discardedRecompressions++
		return
	}
	g2 := r.g
	stranded := false
	switch {
	case s.g.Epoch() == r.epoch:
		s.cache.Install(r.sizes)
	case len(tail) > 0 && s.g.Epoch() == r.epoch+uint64(len(tail)):
		// g2 derives exactly the snapshot document, so the tail ops'
		// preorder positions are valid in order, and each replayed op
		// bumps g2's epoch — after the loop the epochs line up again.
		s.cache.Install(r.sizes)
		for _, op := range tail {
			str, err := update.ApplyCached(g2, op, &s.cache)
			if err != nil {
				// Should be impossible (same document); put the cache back
				// in service of the live grammar and drop the run.
				s.cache.Invalidate()
				s.cache.Sizes(s.g)
				s.discardedRecompressions++
				return
			}
			stranded = stranded || str
		}
		s.replayedTailOps += int64(len(tail))
	default:
		// Epoch moved in a way the tail does not explain (it was trimmed,
		// or a non-update mutation happened): not safe to swap.
		s.discardedRecompressions++
		return
	}
	s.g = g2
	s.gen++
	s.pendingGC = stranded
	// Install retired the spine index with the pre-swap grammar (and a
	// tail replay only re-registers runs it happened to walk); the
	// generation published below seeds a compact view from the
	// compressed start-RHS chain lazily, on the first read that wants
	// indexed descent (generation.spineView), so the swap pays nothing.
	// Generations pinned on the pre-swap grammar keep deriving the old
	// state — that grammar is frozen and untouched forever.
	s.publishLocked()
	s.resetCostBaselineLocked()
	s.recompressions++
	if r.background {
		s.asyncRecompressions++
	}
	// The policy baseline is what actually went live — including any
	// growth the tail replay just added — or sustained racing writes
	// would make every subsequent trigger fire earlier than Ratio says.
	s.lastCompressed = g2.Size()
	s.sizeRest = s.lastCompressed - s.startEdgesLocked()
	if r.st.MaxIntermediate > s.peakSize {
		s.peakSize = r.st.MaxIntermediate
	}
	// The payoff is what GrammarRePair itself achieved: a fold-first
	// already shrank the input it measured.
	s.tunePolicy(r.st.InputSize, r.st.FinalSize)
}

// tunePolicy adapts the trigger ratio to a recompression's payoff: a run
// that barely shrank the grammar backs the trigger off (the churn is
// incompressible right now), a paying run resets it to the base.
func (s *Store) tunePolicy(before, after int) {
	if after > 0 && float64(before)/float64(after) < payoffThreshold {
		s.effRatio *= 1.5
		if s.effRatio > s.cfg.MaxRatio {
			s.effRatio = s.cfg.MaxRatio
		}
	} else {
		s.effRatio = s.cfg.Ratio
	}
}

// gcLocked runs the deferred garbage collection; it returns the
// post-collection |G| measured by the collector's reachability walk, or
// -1 when no collection was pending (the caller falls back to the
// incremental size).
func (s *Store) gcLocked() int {
	if !s.pendingGC {
		return -1
	}
	s.pendingGC = false
	s.ensurePrivateLocked()
	removed, size, startEdges := s.g.GarbageCollectSized()
	s.gcRuns++
	s.rulesCollected += int64(removed)
	if removed > 0 {
		s.cache.DropDeleted(s.g)
	}
	s.sizeRest = size - startEdges
	return size
}

// startEdgesLocked returns the start rule's RHS edge count — the only
// per-batch size walk the incremental |G| accounting needs.
func (s *Store) startEdgesLocked() int {
	return s.g.Rule(s.g.Start).RHS.Edges()
}

// Recompress forces an inline GrammarRePair run regardless of the
// policy and returns its stats. If a background run is in flight its
// result will be discarded when it completes — the manual run already
// replaced the grammar it was compressing.
func (s *Store) Recompress() *core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	st, _ := s.recompressLocked(false, false)
	return st
}

// Wait blocks until no background recompression is in flight
// (swapped in or discarded). It is safe to call concurrently with
// writers — a run they start while Wait sleeps is simply waited for
// too, so on return there was an instant with no run in flight.
func (s *Store) Wait() {
	s.mu.Lock()
	for s.activeRuns > 0 {
		s.runsDone.Wait()
	}
	s.mu.Unlock()
}

// Epoch returns the published grammar's update epoch: the number of
// update operations applied to the document as of the last completed
// batch. This is the stamp the background swap protocol compares;
// reading it is a single atomic load — alloc-free and pin-free, so
// monitoring polls never force the writer onto a clone.
func (s *Store) Epoch() uint64 {
	return s.pub.Load().epoch
}

// Query runs fn on the current published generation, lock-free and
// concurrently with writers: fn observes the document as of the last
// completed batch and never blocks (or is blocked by) ApplyAll. fn must
// treat the grammar as strictly read-only — mutation entry points panic
// on a published grammar — but unlike the old read-lock contract it MAY
// retain the grammar past the call: a published generation is immutable
// forever.
func (s *Store) Query(fn func(*grammar.Grammar) error) error {
	return fn(s.acquireGen().g)
}

// Snapshot returns the current published generation's grammar: an
// atomic pointer grab, not a copy. The grammar is immutable and
// invalidation-safe — later updates and recompressions are applied to
// fresh copies, never to a grammar a Snapshot handed out — so cursors
// built over it stay valid indefinitely. Callers that need a private
// mutable grammar (e.g. to feed a hand-rolled compression pass) must
// Clone it themselves.
func (s *Store) Snapshot() *grammar.Grammar {
	return s.acquireGen().g
}

// Cursor returns a DOM-style cursor over a snapshot of the document.
// Like Snapshot, opening it is O(depth) in the derived tree and does
// not copy the grammar. The cursor comes pre-equipped for indexed
// point queries: the generation's size-vector snapshot and (when the
// isolation frontier indexes long unfolded chains) its frozen spine
// view are attached, so SeekPreorder routes chunk-by-sum instead of
// walking sibling chains — see navigate.Cursor.SeekPreorder.
func (s *Store) Cursor() (*navigate.Cursor, error) {
	gn := s.acquireGen()
	c, err := navigate.NewCursor(gn.g)
	if err != nil {
		return nil, err
	}
	if gn.sizes != nil {
		c.AttachIndex(gn.sizes, gn.spineView())
	}
	return c, nil
}

// PointQuery returns the label of the node at the given preorder index
// (0-based, ⊥ leaves counted) of the published document, via the
// indexed seek of Cursor. For a stream of lookups, open one Cursor and
// SeekPreorder repeatedly instead — that amortizes the cursor
// allocation across the stream.
func (s *Store) PointQuery(pre int64) (string, error) {
	return s.pointQuery(pre, true)
}

// PointQueryNaive is PointQuery without the spine view: the same
// size-vector descent, but long unfolded chains are walked and
// re-measured node by node. It exists as the differential baseline for
// the indexed path (same grammar, same generation, same answer).
func (s *Store) PointQueryNaive(pre int64) (string, error) {
	return s.pointQuery(pre, false)
}

func (s *Store) pointQuery(pre int64, indexed bool) (string, error) {
	gn := s.acquireGen()
	if gn.sizes == nil {
		return "", fmt.Errorf("store: no size vectors published (invalid grammar?)")
	}
	c, err := navigate.NewCursor(gn.g)
	if err != nil {
		return "", err
	}
	if indexed {
		c.AttachIndex(gn.sizes, gn.spineView())
	} else {
		c.AttachIndex(gn.sizes, nil)
	}
	if err := c.SeekPreorder(pre); err != nil {
		return "", err
	}
	return c.Label(), nil
}

// Size returns the current grammar size |G|, cached per generation.
func (s *Store) Size() int {
	return s.acquireGen().cachedSize()
}

// TreeSize returns the node count of the derived binary tree, saturating
// at math.MaxInt64 for exponentially compressing grammars. O(1) whenever
// the size-vector cache was warm at publish time (any time after the
// first applied op).
func (s *Store) TreeSize() (int64, error) {
	return s.acquireGen().cachedTreeSize()
}

func (s *Store) treeSizeLocked() (int64, error) {
	if sizes := s.cache.Peek(); sizes != nil {
		if sv := sizes.Get(s.g.Start); sv != nil {
			return sv.Total, nil
		}
	}
	return s.g.ValNodeCount()
}

// Elements returns the document's element count, or grammar.ErrSaturated
// when the derived tree exceeds the int64 range.
func (s *Store) Elements() (int64, error) {
	n, err := s.TreeSize()
	if err != nil {
		return 0, err
	}
	if grammar.Saturated(n) {
		return 0, grammar.ErrSaturated
	}
	return (n - 1) / 2, nil
}

func (s *Store) elementsLocked() (int64, error) {
	n, err := s.treeSizeLocked()
	if err != nil {
		return 0, err
	}
	if grammar.Saturated(n) {
		return 0, grammar.ErrSaturated
	}
	return (n - 1) / 2, nil
}

// CountLabel counts occurrences of an element label in the document
// without decompressing. The usage vector is cached on the generation,
// so a hot query stream pays one Usage pass per published generation
// instead of one per query — and queries against an old pinned
// generation never invalidate a newer one's cache.
func (s *Store) CountLabel(label string) (float64, error) {
	gn := s.acquireGen()
	usage, err := gn.cachedUsage(&s.usageHits, &s.usageMisses)
	if err != nil {
		return 0, err
	}
	return navigate.CountLabelUsage(gn.g, usage, label), nil
}

// LabelHistogram returns the occurrence count of every element label,
// served from the same generation-cached usage vector as CountLabel.
func (s *Store) LabelHistogram() (map[string]float64, error) {
	gn := s.acquireGen()
	usage, err := gn.cachedUsage(&s.usageHits, &s.usageMisses)
	if err != nil {
		return nil, err
	}
	return navigate.LabelHistogramUsage(gn.g, usage), nil
}

// Memory-tier footprint coefficients: per-unit estimates of what one
// grammar tree node (arena slot + child pointers + Aux), one rule
// (header + registry slot + size vectors), and one isolation-frontier
// spine entry cost resident. Accounting estimates for eviction
// decisions, not exact heap measurements — what matters is that the
// estimate scales with the real footprint.
const (
	bytesPerNode       = 96
	bytesPerRule       = 112
	bytesPerSpineEntry = 48
)

// ResidentBytes estimates the document's resident memory footprint —
// grammar nodes, rule table, and the isolation-frontier index — the
// quantity Config.MemoryBudget bounds fleet-wide. Cold documents evict
// to their encoded bytes, typically 1–2 orders of magnitude smaller.
func (s *Store) ResidentBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.residentBytesLocked()
}

func (s *Store) residentBytesLocked() int64 {
	return int64(s.g.NodeCount())*bytesPerNode +
		int64(s.g.NumRules())*bytesPerRule +
		int64(s.cache.FrontierStats().Entries)*bytesPerSpineEntry
}

// Stats returns a snapshot of the Store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Ops:        s.ops,
		Renames:    s.renames,
		Inserts:    s.inserts,
		Deletes:    s.deletes,
		Batches:    s.batches,
		DupBatches: s.dupBatches,
		LastSeq:    s.lastSeq,

		Recompressions:          s.recompressions,
		AsyncRecompressions:     s.asyncRecompressions,
		DiscardedRecompressions: s.discardedRecompressions,
		ReplayedTailOps:         s.replayedTailOps,
		CostRecompressions:      s.costRecompressions,
		StallNanos:              s.stallNanos,
		RecompressionInflight:   s.inflight,
		SizeCacheHits:           s.cache.Hits,
		SizeCacheMisses:         s.cache.Misses,
		GCRuns:                  s.gcRuns,
		RulesCollected:          s.rulesCollected,
		Refolds:                 s.refolds,
		RefoldedNodes:           s.refoldedNodes,
		RefoldRules:             s.refoldRules,
		FoldFirstRuns:           s.foldFirstRuns,

		Size:               s.sizeRest + s.startEdgesLocked(),
		PeakSize:           s.peakSize,
		LastCompressedSize: s.lastCompressed,
		EffectiveRatio:     s.effRatio,
		ResidentBytes:      s.residentBytesLocked(),
	}
	fs := s.cache.FrontierStats()
	st.IsolationSteps = fs.Steps
	st.IsolationJumps = fs.Jumps
	st.IsolationSkipped = fs.Skipped
	st.SpineNodes = fs.Entries
	st.Spines = fs.Spines
	st.UsageCacheHits = s.usageHits.Load()
	st.UsageCacheMisses = s.usageMisses.Load()
	if s.wl != nil {
		ctr := s.wl.Counters()
		st.Durable = true
		st.WALAppends = ctr.Appends
		st.WALBytes = ctr.AppendedBytes
		st.WALSyncs = ctr.Syncs
		st.FsyncNanos = ctr.SyncNanos
		st.Snapshots = ctr.Snapshots
		st.WALBroken = s.walBroken != nil
		st.SnapshotFailures = s.snapshotFailures
		st.RecoveredOps = s.recovered.RecoveredOps
		st.TruncatedTailRecords = s.recovered.TruncatedTailRecords
		st.SnapshotsCorrupt = s.recovered.SnapshotsCorrupt
	}
	if st.Size > st.PeakSize {
		st.PeakSize = st.Size
	}
	if n, err := s.elementsLocked(); errors.Is(err, grammar.ErrSaturated) {
		st.Saturated = true
	} else if err == nil {
		st.Elements = n
	}
	return st
}
