package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	sltgrammar "repro"
	"repro/internal/isolate"
	"repro/internal/navigate"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The traced run splits its measured time in three equal stretches:
//
//	untraced  the workload over the wire with no spans: the baseline
//	          the tracing overhead is reported against;
//	traced    the workload over the wire with a span per call, the
//	          layer sampler and read captures; the per-layer metrics
//	          come from here;
//	local     the same calls made in process (ShardedStore.ApplyAllSeq
//	          and PointQuery), so the server's share of a round trip is
//	          the wire p50 minus this p50. On ingest it replays exactly
//	          the batches the traced stretch acked, into a fresh fleet.
//
// After the traced stretch, with the fleet quiesced, the layers the
// load reaches only indirectly are called directly on what it captured:
// isolate.SeedView and Cursor.SeekPreorder on the generations reads
// saw, sltgrammar.Recompress on generations published just before a
// recompression, EncodeGrammar/DecodeGrammar on resident snapshots,
// and on ingest a side wal.Log fed the acked batches.

const (
	maxRecompressCaptures = 6   // pre-recompression generations re-run through GrammarRePair
	maxReadCaptures       = 256 // read positions re-run through SeekPreorder
	maxWALBatches         = 150 // acked batches replayed into the side WAL
	codecReps             = 3   // encode/decode repetitions per sampled snapshot
)

// layerSampler runs every tickEvery during the traced stretch. It
// tracks the fleet's resident bytes, each sampled document's growth
// since its last recompression (the Figs. 4/5 degradation), and keeps
// the generation published just before a document's recompression
// count advances, as GrammarRePair input for the core metrics.
type layerSampler struct {
	ss           *sltgrammar.ShardedStore
	ids          []string
	last         []int64
	prev         []*sltgrammar.Grammar
	pre          []*sltgrammar.Grammar
	growthMax    float64
	residentPeak int64
}

func newLayerSampler(ss *sltgrammar.ShardedStore, ids []string) *layerSampler {
	return &layerSampler{ss: ss, ids: ids, last: make([]int64, len(ids)), prev: make([]*sltgrammar.Grammar, len(ids))}
}

func (l *layerSampler) tick() {
	l.residentPeak = max(l.residentPeak, l.ss.Stats().ResidentBytes)
	for i, id := range l.ids {
		st, ok := l.ss.Get(id)
		if !ok {
			continue
		}
		s := st.Stats()
		if s.LastCompressedSize > 0 {
			l.growthMax = max(l.growthMax, float64(s.Size)/float64(s.LastCompressedSize))
		}
		if s.Recompressions > l.last[i] && l.prev[i] != nil && len(l.pre) < maxRecompressCaptures {
			l.pre = append(l.pre, l.prev[i])
		}
		l.last[i] = s.Recompressions
		l.prev[i] = st.Snapshot()
	}
}

// docTotals sums per-document Store counters over the sampled documents.
type docTotals struct {
	ops, batches, hits, misses, gcRuns, steps, jumps int64
	spine                                            int
}

func sumDocs(ss *sltgrammar.ShardedStore, ids []string) docTotals {
	var t docTotals
	for _, id := range ids {
		st, ok := ss.Get(id)
		if !ok {
			continue
		}
		s := st.Stats()
		t.ops += s.Ops
		t.batches += s.Batches
		t.hits += s.SizeCacheHits
		t.misses += s.SizeCacheMisses
		t.gcRuns += s.GCRuns
		t.steps += s.IsolationSteps
		t.jumps += s.IsolationJumps
		t.spine += s.SpineNodes
	}
	return t
}

// readCapture is a read the traced stretch made, with the generation
// current when it was answered.
type readCapture struct {
	g   *sltgrammar.Grammar
	doc int
	pos int64
}

func (b *bench) traced(f *fleet) (map[string]metric, error) {
	tr := newTracer()
	d := b.duration() / 3

	uw, ur, _, err := b.wireRun("untraced", f, d, b.paceEvery(), true, nil, nil)
	if err != nil {
		return nil, err
	}
	mu := b.endToEnd(uw, ur)
	b.report("untraced", uw, ur, mu)

	// Ingest needs fresh documents for each stretch: its streams run
	// once. The others continue on the set-up fleet.
	tf := f
	if b.sp.name == "ingest" {
		if tf, err = b.newFleet(true); err != nil {
			return nil, err
		}
		defer tf.close()
		if err := b.setup(tf, tr); err != nil {
			return nil, err
		}
	}
	ls := newLayerSampler(tf.ss, b.sampleIDs)
	var caps []readCapture
	hook := func(p *phase) {
		p.onTick = ls.tick
		p.capture = func(doc int, pos int64) {
			if len(caps) >= maxReadCaptures {
				return
			}
			if g, err := tf.ss.Snapshot(b.ids[doc]); err == nil {
				caps = append(caps, readCapture{g: g, doc: doc, pos: pos})
			}
		}
	}
	fs0, ds0 := tf.ss.Stats(), sumDocs(tf.ss, b.sampleIDs)
	tw, trd, refs, err := b.wireRun("traced", tf, d, b.paceEvery(), true, tr, hook)
	if err != nil {
		return nil, err
	}
	fs1, ds1 := tf.ss.Stats(), sumDocs(tf.ss, b.sampleIDs)
	mt := b.endToEnd(tw, trd)
	b.report("traced", tw, trd, mt)
	b.overhead(mu, mt)
	tf.ss.Quiesce()

	per := map[string]metric{}
	set := func(name string, v float64, unit string) { per[name] = metric{v, unit} }
	check := b.readCheck(refs)
	b.navigateLayer(tr, caps, check, set)
	b.coreLayer(tr, ls.pre, set)
	if err := b.codecLayer(tr, tf, set); err != nil {
		return nil, err
	}
	if err := b.walLayer(tr, tw.acked, set); err != nil {
		return nil, err
	}

	bw, br, err := b.localRun(f, d, tw.acked, refs, tr)
	if err != nil {
		return nil, err
	}

	ops := float64(tw.writeOps + trd.reads)
	wireBytes := tw.bytes
	gcCPU, totalCPU := tw.rtAfter.gcCPU-tw.rtBefore.gcCPU, tw.rtAfter.totalCPU-tw.rtBefore.totalCPU
	allocBytes := tw.rtAfter.allocBytes - tw.rtBefore.allocBytes
	if trd != tw {
		wireBytes += trd.bytes
		gcCPU += trd.rtAfter.gcCPU - trd.rtBefore.gcCPU
		totalCPU += trd.rtAfter.totalCPU - trd.rtBefore.totalCPU
		allocBytes += trd.rtAfter.allocBytes - trd.rtBefore.allocBytes
	}
	set("loadgen.gen_s", b.genS, "s")
	set("loadgen.late_p99_ms", ms(quantile(trd.late, 0.99)), "ms")
	set("loadgen.write_rate_frac", b.writeRateFrac(tw), "frac")
	set("loadgen.read_rate_frac", rateFrac(trd.reads, trd.offeredR), "frac")
	set("treerepair.compress_s", b.compressS, "s")
	set("server.write_self_p50_ms", ms(latQuantile(tw.writes, 0.5, all))-ms(latQuantile(bw.writes, 0.5, all)), "ms")
	set("server.read_self_p50_ms", ms(quantile(trd.readSvc, 0.5))-ms(quantile(br.readSvc, 0.5)), "ms")
	set("server.bytes_per_op", frac(float64(wireBytes), ops), "B/op")
	set("store.apply_p50_ms", ms(latQuantile(bw.writes, 0.5, all)), "ms")
	set("store.apply_p99_ms", ms(latQuantile(bw.writes, 0.99, all)), "ms")
	swapped := float64(fs1.Recompressions - fs0.Recompressions)
	discarded := float64(fs1.DiscardedRecompressions - fs0.DiscardedRecompressions)
	set("store.recompress_swapped", swapped, "count")
	set("store.recompress_discarded", discarded, "count")
	set("store.recompress_useful_frac", frac(swapped, swapped+discarded), "frac")
	set("store.stall_ms", float64(fs1.StallNanos-fs0.StallNanos)/1e6, "ms")
	set("store.replayed_tail_ops", float64(fs1.ReplayedTailOps-fs0.ReplayedTailOps), "count")
	set("store.growth_max", ls.growthMax, "ratio")
	set("store.refolded_nodes", float64(fs1.RefoldedNodes-fs0.RefoldedNodes), "count")
	dOps := float64(max(0, ds1.ops-ds0.ops))
	set("store.size_cache_miss_frac", frac(float64(max(0, ds1.misses-ds0.misses)), float64(max(0, ds1.hits-ds0.hits+ds1.misses-ds0.misses))), "frac")
	set("store.gc_runs_per_batch", frac(float64(max(0, ds1.gcRuns-ds0.gcRuns)), float64(max(0, ds1.batches-ds0.batches))), "runs/batch")
	set("store.evictions", float64(fs1.Evictions-fs0.Evictions), "count")
	set("store.hydrations", float64(fs1.Hydrations-fs0.Hydrations), "count")
	set("store.resident_mb_peak", float64(ls.residentPeak)/1e6, "MB")
	set("isolate.steps_per_op", frac(float64(max(0, ds1.steps-ds0.steps)), dOps), "steps/op")
	set("isolate.jumps_per_op", frac(float64(max(0, ds1.jumps-ds0.jumps)), dOps), "jumps/op")
	set("isolate.spine_nodes", float64(ds1.spine), "count")
	fleetOps := float64(fs1.Ops - fs0.Ops)
	fleetBatches := float64(fs1.Batches - fs0.Batches)
	set("wal.bytes_per_op", frac(float64(fs1.WALBytes-fs0.WALBytes), fleetOps), "B/op")
	set("wal.fsyncs_per_batch", frac(float64(fs1.WALSyncs-fs0.WALSyncs), fleetBatches), "fsyncs/batch")
	set("wal.fsync_ms_per_batch", frac(float64(fs1.FsyncNanos-fs0.FsyncNanos)/1e6, fleetBatches), "ms/batch")
	set("runtime.gc_cpu_frac", frac(gcCPU, totalCPU), "frac")
	set("runtime.alloc_bytes_per_op", frac(float64(allocBytes), ops), "B/op")
	set("trace.write_p50_ratio", frac(mt["write_p50_ms"].Value, mu["write_p50_ms"].Value), "ratio")
	set("trace.read_p50_ratio", frac(mt["read_p50_ms"].Value, mu["read_p50_ms"].Value), "ratio")

	path := filepath.Join(b.o.workdir, fmt.Sprintf("spans-%s-%d.json", b.sp.name, b.o.seed))
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.w, "spans: %s\n", path)
	return per, nil
}

// overhead prints the traced stretch's end-to-end metrics beside the
// untraced stretch's of the same run.
func (b *bench) overhead(mu, mt map[string]metric) {
	names := make([]string, 0, len(mu))
	for k := range mu {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(b.w, "trace overhead (%s): metric untraced traced traced/untraced\n", b.sp.name)
	for _, k := range names {
		fmt.Fprintf(b.w, "  %-18s %10.4g %10.4g %6.3f %s\n", k, mu[k].Value, mt[k].Value, frac(mt[k].Value, mu[k].Value), mu[k].Unit)
	}
}

// readCheck is the read oracle of the workload: exact labels of the
// reference on ingest, the rename plan's allowed labels otherwise.
func (b *bench) readCheck(refs []*ingestRef) func(doc int, pos int64, label string) bool {
	if refs != nil {
		return func(d int, pos int64, label string) bool {
			return pos >= 0 && pos < int64(len(refs[d].labels)) && refs[d].labels[pos] == label
		}
	}
	return func(d int, pos int64, label string) bool {
		return b.plans[b.pool[d]].allowed(b.docs[b.pool[d]].labels, pos, label)
	}
}

// navigateLayer re-runs captured reads on the generation they were
// answered from: isolate.SeedView (size vectors computed outside the
// timing), then Cursor.SeekPreorder with the view attached. A label the
// oracle rejects is a wrong answer.
func (b *bench) navigateLayer(tr *tracer, caps []readCapture, check func(int, int64, string) bool, set func(string, float64, string)) {
	root := tr.record("layer.navigate", 0, tr.newReq(), time.Now(), time.Now())
	var views, seeks []time.Duration
	var nSeeks, nJumps int64
	byGen := map[*sltgrammar.Grammar][]readCapture{}
	var order []*sltgrammar.Grammar
	for _, c := range caps {
		if _, ok := byGen[c.g]; !ok {
			order = append(order, c.g)
		}
		byGen[c.g] = append(byGen[c.g], c)
	}
	for _, g := range order {
		req := tr.newReq()
		sizes, err := g.ValSizes()
		if err != nil {
			b.noteWrong(fmt.Sprintf("size vectors of a read generation: %v", err), 1)
			continue
		}
		t0 := time.Now()
		view := isolate.SeedView(g, sizes)
		t1 := time.Now()
		tr.record("isolate.SeedView", root, req, t0, t1)
		views = append(views, t1.Sub(t0))
		cur, err := navigate.NewCursor(g)
		if err != nil {
			b.noteWrong(fmt.Sprintf("cursor: %v", err), 1)
			continue
		}
		cur.AttachIndex(sizes, view)
		for _, c := range byGen[g] {
			t0 := time.Now()
			err := cur.SeekPreorder(c.pos)
			t1 := time.Now()
			tr.record("navigate.SeekPreorder", root, req, t0, t1)
			seeks = append(seeks, t1.Sub(t0))
			if err != nil || !check(c.doc, c.pos, cur.Label()) {
				b.noteWrong(fmt.Sprintf("SeekPreorder(%d) on %s = %q (%v)", c.pos, b.ids[c.doc], cur.Label(), err), 1)
			}
		}
		ps := cur.Stats()
		nSeeks += ps.Seeks
		nJumps += ps.Jumps
	}
	tr.setEnd(root, time.Now())
	set("isolate.seedview_us", us(quantile(views, 0.5)), "us")
	set("navigate.seek_p50_us", us(quantile(seeks, 0.5)), "us")
	set("navigate.seek_p99_us", us(quantile(seeks, 0.99)), "us")
	set("navigate.jumps_per_seek", frac(float64(nJumps), float64(nSeeks)), "jumps/seek")
}

func (b *bench) noteWrong(msg string, n int64) {
	b.failed += n
	b.attempted += n
	b.wrong = append(b.wrong, msg)
}

// coreLayer runs GrammarRePair on each generation captured just before
// a recompression: time, blow-up (Fig. 2) and shrink of each run, and
// its heap allocations, with the fleet quiesced.
func (b *bench) coreLayer(tr *tracer, pre []*sltgrammar.Grammar, set func(string, float64, string)) {
	root := tr.record("layer.core", 0, tr.newReq(), time.Now(), time.Now())
	var times, blowup, shrink, allocs []float64
	for _, g := range pre {
		a0 := allocObjects()
		t0 := time.Now()
		_, cs := sltgrammar.Recompress(g)
		t1 := time.Now()
		a1 := allocObjects()
		tr.record("core.Recompress", root, tr.newReq(), t0, t1)
		times = append(times, ms(t1.Sub(t0)))
		blowup = append(blowup, frac(float64(cs.MaxIntermediate), float64(cs.InputSize)))
		shrink = append(shrink, frac(float64(cs.InputSize), float64(cs.FinalSize)))
		allocs = append(allocs, float64(a1-a0))
	}
	tr.setEnd(root, time.Now())
	set("core.recompress_ms", median(times), "ms")
	set("core.blowup", median(blowup), "ratio")
	set("core.shrink", median(shrink), "ratio")
	set("core.allocs_per_run", median(allocs), "allocs")
}

// codecLayer encodes and decodes the sampled documents' snapshots: the
// work an eviction and a hydration do.
func (b *bench) codecLayer(tr *tracer, f *fleet, set func(string, float64, string)) error {
	root := tr.record("layer.grammar", 0, tr.newReq(), time.Now(), time.Now())
	var enc, dec []time.Duration
	var buf bytes.Buffer
	for _, id := range b.sampleIDs {
		g, err := f.ss.Snapshot(id)
		if err != nil {
			return err
		}
		for r := 0; r < codecReps; r++ {
			req := tr.newReq()
			buf.Reset()
			t0 := time.Now()
			if err := sltgrammar.EncodeGrammar(&buf, g); err != nil {
				return fmt.Errorf("encode %s: %w", id, err)
			}
			t1 := time.Now()
			if _, err := sltgrammar.DecodeGrammar(bytes.NewReader(buf.Bytes())); err != nil {
				return fmt.Errorf("decode %s: %w", id, err)
			}
			t2 := time.Now()
			tr.record("grammar.Encode", root, req, t0, t1)
			tr.record("grammar.Decode", root, req, t1, t2)
			enc = append(enc, t1.Sub(t0))
			dec = append(dec, t2.Sub(t1))
		}
	}
	tr.setEnd(root, time.Now())
	set("grammar.encode_us", us(quantile(enc, 0.5)), "us")
	set("grammar.decode_us", us(quantile(dec, 0.5)), "us")
	return nil
}

// walLayer replays the first acked batches of a durable workload into
// side write-ahead logs, one per document, timing AppendBatch and Sync
// apart. In-memory workloads report zeros.
func (b *bench) walLayer(tr *tracer, acked [][]workload.FleetBatch, set func(string, float64, string)) error {
	var appends, syncs []time.Duration
	if b.sp.durable {
		root := tr.record("layer.wal", 0, tr.newReq(), time.Now(), time.Now())
		logs := map[int]*wal.Log{}
		pos := map[int]int64{}
		seq := map[int]uint64{}
		defer func() {
			for _, l := range logs {
				l.Close()
			}
		}()
		n := 0
		for _, c := range acked {
			for _, fb := range c {
				if n >= maxWALBatches {
					break
				}
				n++
				l, ok := logs[fb.Doc]
				if !ok {
					var buf bytes.Buffer
					if err := sltgrammar.EncodeGrammar(&buf, b.seedGs[fb.Doc]); err != nil {
						return err
					}
					dir := filepath.Join(b.runDir, fmt.Sprintf("side-wal-%d", fb.Doc))
					var err error
					if l, err = wal.Create(dir, buf.Bytes(), wal.Options{Fsync: wal.FsyncOff}); err != nil {
						return err
					}
					logs[fb.Doc] = l
				}
				seq[fb.Doc]++
				req := tr.newReq()
				t0 := time.Now()
				if err := l.AppendBatch(pos[fb.Doc], seq[fb.Doc], fb.Ops); err != nil {
					return fmt.Errorf("side WAL append: %w", err)
				}
				t1 := time.Now()
				if err := l.Sync(); err != nil {
					return fmt.Errorf("side WAL sync: %w", err)
				}
				t2 := time.Now()
				tr.record("wal.AppendBatch", root, req, t0, t1)
				tr.record("wal.Sync", root, req, t1, t2)
				appends = append(appends, t1.Sub(t0))
				syncs = append(syncs, t2.Sub(t1))
				pos[fb.Doc] += int64(len(fb.Ops))
			}
		}
		tr.setEnd(root, time.Now())
	}
	set("wal.append_p50_us", us(quantile(appends, 0.5)), "us")
	set("wal.sync_p50_us", us(quantile(syncs, 0.5)), "us")
	return nil
}

// localRun is the in-process stretch: the same calls as over the wire,
// made straight into a ShardedStore. On ingest a fresh fleet replays
// the batches the traced stretch acked, then the same read probe; the
// final-state oracle runs on it too.
func (b *bench) localRun(f *fleet, d time.Duration, acked [][]workload.FleetBatch, refs []*ingestRef, tr *tracer) (w, r *phaseStats, err error) {
	if b.sp.name != "ingest" {
		p := b.loadPhase("local", "local", d, 0, f, []applier{newLocalWriter(f.ss)}, f.ss, b.o.seed*7+3)
		w = runPhase(p, tr, f)
		b.account(w)
		return w, w, nil
	}
	lf, err := b.newFleet(false)
	if err != nil {
		return nil, nil, err
	}
	defer lf.close()
	if err := b.setup(lf, nil); err != nil {
		return nil, nil, err
	}
	writers := make([]applier, conns)
	for c := range writers {
		writers[c] = newLocalWriter(lf.ss)
	}
	p := &phase{name: "local", prefix: "local", dur: maxRound, ids: b.ids, writers: writers, closed: acked, closedEvery: b.paceEvery()}
	w = runPhase(p, tr, lf)
	b.account(w)
	lf.ss.Quiesce()
	r = runPhase(b.probePhase("local.probe", "local", b.sp.probe, lf.ss, refs, b.o.seed*7+2), tr, lf)
	b.account(r)
	b.checkIngest(lf.ss.Snapshot, refs, acked)
	return w, r, nil
}
