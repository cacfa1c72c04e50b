package store

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/xmltree"
)

// gate instruments a Store's compressor so a test can hold an
// asynchronous recompression in flight deliberately: the first n calls
// block until release is closed, later calls pass straight through.
// This is the deterministic "slow compressor" that pins the swap
// protocol.
type gate struct {
	entered   chan struct{} // one buffered signal per gated call, sent before parking
	release   chan struct{}
	remaining atomic.Int32
}

func newGate(n int) *gate {
	g := &gate{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	g.remaining.Store(int32(n))
	return g
}

func (ga *gate) install(s *Store) {
	inner := s.compress
	s.compress = func(g *grammar.Grammar, o core.Options) (*grammar.Grammar, *core.Stats) {
		if ga.remaining.Add(-1) >= 0 {
			ga.entered <- struct{}{}
			<-ga.release
		}
		return inner(g, o)
	}
}

// asyncFixture is an append-friendly log document plus its plain-tree
// ground truth; applyRec appends one record through the Store and the
// reference tree in lockstep.
type asyncFixture struct {
	st   *Store
	syms *xmltree.SymbolTable
	ref  *xmltree.Node
	ops  int
}

func newAsyncFixture(t *testing.T, cfg Config) *asyncFixture {
	t.Helper()
	root := xmltree.NewUnranked("log")
	for i := 0; i < 64; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("rec"))
	}
	doc := root.Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})
	return &asyncFixture{st: New(g, cfg), syms: doc.Syms, ref: doc.Root.Copy()}
}

func (fx *asyncFixture) applyRec(t *testing.T) {
	t.Helper()
	n, err := fx.st.TreeSize()
	if err != nil {
		t.Fatal(err)
	}
	op := update.Op{Kind: update.Insert, Pos: n - 1, Frag: xmltree.NewUnranked("rec")}
	if err := fx.st.Apply(op); err != nil {
		t.Fatal(err)
	}
	fx.ref, err = update.ApplyTree(fx.syms, fx.ref, op)
	if err != nil {
		t.Fatal(err)
	}
	fx.ops++
}

// check asserts the Store still derives exactly the reference tree — the
// "never a lost update" property of the swap protocol.
func (fx *asyncFixture) check(t *testing.T, when string) {
	t.Helper()
	snap := fx.st.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("%s: invalid grammar: %v", when, err)
	}
	if !sameLabeledTree(snap.Syms, mustTree(t, snap), fx.syms, fx.ref) {
		t.Fatalf("%s: store diverged from the reference tree", when)
	}
}

// driveInflight appends records until an asynchronous recompression is
// in flight. RecompressionInflight flips under the write lock at the
// batch boundary that triggers the run, so once it reads true no op has
// raced the snapshot yet — the tail is deterministically empty here.
func (fx *asyncFixture) driveInflight(t *testing.T) {
	t.Helper()
	for i := 0; i < 2048; i++ {
		fx.applyRec(t)
		if fx.st.Stats().RecompressionInflight {
			return
		}
	}
	t.Fatal("policy never started an async recompression")
}

// TestAsyncSwapClean: no write races the in-flight run, so the epoch
// check passes and the compressed grammar (plus its pre-warmed size
// vectors) swaps in without any writer stall or cache warm-up pass.
func TestAsyncSwapClean(t *testing.T) {
	ga := newGate(1)
	fx := newAsyncFixture(t, Config{Async: true, Ratio: 1.5, MinSize: 8})
	ga.install(fx.st)

	fx.driveInflight(t)
	grown := fx.st.Size()
	missesBefore := fx.st.Stats().SizeCacheMisses
	close(ga.release)
	fx.st.Wait()

	stats := fx.st.Stats()
	if stats.AsyncRecompressions != 1 || stats.DiscardedRecompressions != 0 {
		t.Fatalf("async=%d discarded=%d, want 1/0",
			stats.AsyncRecompressions, stats.DiscardedRecompressions)
	}
	if stats.ReplayedTailOps != 0 {
		t.Fatalf("clean swap replayed %d tail ops", stats.ReplayedTailOps)
	}
	if stats.Size >= grown {
		t.Fatalf("swap did not shrink the grammar (%d -> %d)", grown, stats.Size)
	}
	// Cache hand-off: the swap installed the vectors computed off the
	// lock, so no new cold ValSizes pass may appear — the next op must
	// hit the warm cache.
	fx.applyRec(t)
	if got := fx.st.Stats().SizeCacheMisses; got != missesBefore {
		t.Fatalf("swap cost a cache warm-up pass (misses %d -> %d)", missesBefore, got)
	}
	if epoch := fx.st.Epoch(); epoch != uint64(fx.ops) {
		t.Fatalf("epoch %d after %d ops", epoch, fx.ops)
	}
	fx.check(t, "after clean swap")
}

// TestAsyncSwapReplaysTail: writes racing the in-flight run land in the
// tail and are replayed onto the compressed result before the swap —
// the race costs nothing and loses nothing.
func TestAsyncSwapReplaysTail(t *testing.T) {
	ga := newGate(1)
	fx := newAsyncFixture(t, Config{Async: true, Ratio: 1.5, MinSize: 8})
	ga.install(fx.st)

	fx.driveInflight(t)
	const racing = 5
	for i := 0; i < racing; i++ {
		fx.applyRec(t) // these race the blocked compression
	}
	close(ga.release)
	fx.st.Wait()

	stats := fx.st.Stats()
	if stats.AsyncRecompressions != 1 {
		t.Fatalf("async recompressions = %d, want 1", stats.AsyncRecompressions)
	}
	if stats.ReplayedTailOps != racing {
		t.Fatalf("replayed %d tail ops, want %d", stats.ReplayedTailOps, racing)
	}
	if stats.DiscardedRecompressions != 0 {
		t.Fatalf("replayable tail was discarded (%d)", stats.DiscardedRecompressions)
	}
	if epoch := fx.st.Epoch(); epoch != uint64(fx.ops) {
		t.Fatalf("epoch %d after %d ops — replay lost the continuity", epoch, fx.ops)
	}
	fx.check(t, "after tail replay")
}

// TestAsyncSwapDiscardOnOverflow: more racing writes than MaxTail must
// discard the run — never block writers, never lose their updates — and
// the policy then recompresses on a later batch.
func TestAsyncSwapDiscardOnOverflow(t *testing.T) {
	ga := newGate(1)
	fx := newAsyncFixture(t, Config{Async: true, Ratio: 1.5, MinSize: 8, MaxTail: 2})
	ga.install(fx.st)

	fx.driveInflight(t)
	for i := 0; i < 6; i++ { // > MaxTail
		fx.applyRec(t)
	}
	close(ga.release)
	fx.st.Wait()

	stats := fx.st.Stats()
	if stats.DiscardedRecompressions != 1 {
		t.Fatalf("discarded = %d, want 1", stats.DiscardedRecompressions)
	}
	if stats.Recompressions != 0 {
		t.Fatalf("an overflowed run still swapped in (%d)", stats.Recompressions)
	}
	fx.check(t, "after discarded run")

	// The grammar is still degraded, so the policy must fire again; the
	// gate is exhausted, so this run completes immediately and swaps.
	for i := 0; i < 512 && fx.st.Stats().Recompressions == 0; i++ {
		fx.applyRec(t)
		fx.st.Wait()
	}
	if fx.st.Stats().Recompressions == 0 {
		t.Fatal("policy never recovered after a discarded run")
	}
	fx.check(t, "after recovery")
}

// TestAsyncDiscardAfterManualRecompress: a manual synchronous Recompress
// during an in-flight run replaces the grammar generation; the stale
// async result must be discarded even though the epoch is unchanged.
func TestAsyncDiscardAfterManualRecompress(t *testing.T) {
	ga := newGate(1)
	fx := newAsyncFixture(t, Config{Async: true, Ratio: 1.5, MinSize: 8})
	ga.install(fx.st)

	fx.driveInflight(t)
	// Wait until the background run is parked inside the gate; only then
	// does the manual run below bypass it (the gate is single-shot).
	<-ga.entered
	fx.st.Recompress()
	close(ga.release)
	fx.st.Wait()

	stats := fx.st.Stats()
	if stats.AsyncRecompressions != 0 || stats.DiscardedRecompressions != 1 {
		t.Fatalf("async=%d discarded=%d, want 0/1 after manual recompression",
			stats.AsyncRecompressions, stats.DiscardedRecompressions)
	}
	if stats.Recompressions != 1 {
		t.Fatalf("recompressions = %d, want the manual run only", stats.Recompressions)
	}
	fx.check(t, "after manual recompression")
}

// TestEngineInlineMatchesBackground pins that the recompression engine
// yields the same grammar wherever it runs: an Async Store drained with
// Wait after every batch (so no write ever races its background run)
// and an inline Store, fed the same policy-firing stream, must encode
// byte-identically at every batch boundary and count the same runs.
func TestEngineInlineMatchesBackground(t *testing.T) {
	for _, short := range []string{"XM", "EW"} {
		g, ops := streamFixture(t, short, 200, 11)
		inline := New(g.Clone(), Config{Ratio: 1.2, MinSize: 16})
		bg := New(g, Config{Ratio: 1.2, MinSize: 16, Async: true})
		for done := 0; done < len(ops); done += 20 {
			batch := ops[done:min(done+20, len(ops))]
			if err := inline.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			if err := bg.ApplyAll(batch); err != nil {
				t.Fatal(err)
			}
			bg.Wait()
			if !bytes.Equal(encodeBytes(t, inline.Snapshot()), encodeBytes(t, bg.Snapshot())) {
				t.Fatalf("%s: inline and background grammars differ after %d ops", short, done+len(batch))
			}
		}
		is, bs := inline.Stats(), bg.Stats()
		if is.Recompressions == 0 {
			t.Fatalf("%s: the stream never fired the policy", short)
		}
		if is.Recompressions != bs.Recompressions {
			t.Fatalf("%s: recompressions inline %d, background %d", short, is.Recompressions, bs.Recompressions)
		}
		if bs.AsyncRecompressions != bs.Recompressions || is.AsyncRecompressions != 0 {
			t.Fatalf("%s: background runs %d of %d, inline reports %d",
				short, bs.AsyncRecompressions, bs.Recompressions, is.AsyncRecompressions)
		}
	}
}

// TestEpochReadAllocFree guards the swap protocol's read-side cost: the
// epoch check (Store.Epoch) and the sharded document lookup must not
// allocate — they sit on every read of a serving system.
func TestEpochReadAllocFree(t *testing.T) {
	fx := newAsyncFixture(t, Config{Ratio: -1})
	if allocs := testing.AllocsPerRun(100, func() {
		_ = fx.st.Epoch()
		_ = fx.st.Size()
	}); allocs != 0 {
		t.Fatalf("Store.Epoch/Size allocated %.1f times per read", allocs)
	}

	ss := NewSharded(4, Config{Ratio: -1})
	defer ss.Close()
	root := xmltree.NewUnranked("r", xmltree.NewUnranked("a"))
	g, _ := treerepair.Compress(root.Binary(), treerepair.Options{})
	if _, err := ss.Open("doc-0", g); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		st, ok := ss.Get("doc-0")
		if !ok {
			t.Fatal("doc-0 vanished")
		}
		_ = st.Epoch()
	}); allocs != 0 {
		t.Fatalf("sharded lookup + epoch check allocated %.1f times per read", allocs)
	}
}
