package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	sltgrammar "repro"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// Settings shared by every workload.
const (
	shards      = 4   // shard count of the served fleet (cmd/loadgen's default)
	batchOps    = 10  // update ops per batch
	zipfSkew    = 1.4 // Zipf exponent of document popularity
	conns       = 2   // load connections, no more than the 2 CPUs it was sized on
	setupReps   = 9   // set-ups per run; setup_s is their median
	okWithin    = 10 * time.Millisecond
	renameSlots = 64 // positions in each document's rename cycle
)

// spec is one named workload.
type spec struct {
	name      string
	corpus    string
	scale     float64 // corpus scale of the generated documents
	inputs    int     // documents generated
	docs      int     // documents served (tiered clones its inputs)
	streamOps int     // per-document insert-heavy stream (ingest)
	durable   bool    // WAL with FsyncBatch
	budgetDiv int64

	// paceOps caps ingest's closed-loop writers in its latency rounds:
	// together they send at most this many ops per second, each batch
	// after the previous ack and not before its scheduled time. Its
	// throughput rounds send each batch as soon as the previous ack is in.
	paceOps     float64
	writeRate   float64 // open-loop rename batches per second (tiered)
	renameBatch int     // renames per batch
	readRate    float64 // open-loop point reads per second
	// probe is the length of ingest's read probe, which follows the
	// writes of each round.
	probe time.Duration
	// sampleEvery is the number of acked ops between edges samples.
	sampleEvery int64
}

var specs = map[string]spec{
	"ingest": {name: "ingest", corpus: "XM", scale: 0.04, inputs: 8, docs: 8, streamOps: 350, durable: true,
		paceOps: 250, readRate: 250, probe: 2 * time.Second, sampleEvery: 100},
	"tiered": {name: "tiered", corpus: "XM", scale: 0.08, inputs: 8, docs: 256, budgetDiv: 4,
		writeRate: 100, renameBatch: 2, readRate: 250, sampleEvery: 40},
}

// bench is one run of one workload.
type bench struct {
	o      options
	w      io.Writer
	sp     spec
	runDir string
	dirs   int

	docs   []*docInput
	plans  []*renamePlan // per input document (tiered)
	ids    []string
	pool   []int // served document -> input document
	sched  []workload.FleetBatch
	budget int64
	// sampleIDs are the documents the per-document samplers read: all
	// of them, or on tiered the 8 hottest (one clone of each input), so
	// sampling never rehydrates a cold document.
	sampleIDs []string
	writes    []int // per served document: rename batches sent so far

	genS      float64
	setupS    []float64
	compressS float64
	seedGs    []*sltgrammar.Grammar // TreeRePair output of the last set-up

	attempted, failed int64
	wrong             []string
}

func run(o options, w io.Writer) (result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want ingest or tiered)", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	b := &bench{o: o, w: w, sp: sp}
	b.runDir = filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", sp.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.runDir)

	t0 := time.Now()
	if err := b.gen(); err != nil {
		return result{}, fmt.Errorf("generate inputs: %w", err)
	}
	b.genS = time.Since(t0).Seconds()
	b.stamp()

	var f *fleet
	for r := 0; r < setupReps; r++ {
		if f != nil {
			if err := f.close(); err != nil {
				return result{}, err
			}
		}
		var err error
		if f, err = b.newFleet(o.trace); err != nil {
			return result{}, err
		}
		t := time.Now()
		if err := b.setup(f, nil); err != nil {
			f.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t).Seconds())
	}
	fmt.Fprintf(w, "gen_s %.3f  setup_s %v  treerepair_s %.3f\n", b.genS, fmtFloats(b.setupS), b.compressS)
	if err := b.verifySetup(f); err != nil {
		f.close()
		return result{}, err
	}

	var metrics map[string]metric
	var err error
	if o.trace {
		metrics, err = b.traced(f)
	} else {
		metrics, err = b.untraced(f)
	}
	if cerr := f.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close fleet: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	for _, m := range b.wrong {
		fmt.Fprintln(w, "oracle:", m)
	}
	fmt.Fprintf(w, "attempted %d ops, failed %d (failed_frac %.6f)\n", b.attempted, b.failed, frac(float64(b.failed), float64(b.attempted)))
	return result{
		Correct:   b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// storeConfig is the production configuration (cmd/loadgen's) plus
// what the workload says: a fresh WAL directory when durable, the
// memory budget when tiered.
func (b *bench) storeConfig() sltgrammar.StoreConfig {
	cfg := sltgrammar.StoreConfig{Async: true}
	if b.sp.durable {
		b.dirs++
		cfg.Durability = &sltgrammar.Durability{
			Dir:   filepath.Join(b.runDir, fmt.Sprintf("wal-%d", b.dirs)),
			Fsync: sltgrammar.FsyncBatch,
		}
	}
	cfg.MemoryBudget = b.budget
	return cfg
}

func (b *bench) newFleet(count bool) (*fleet, error) {
	return startFleet(b.storeConfig(), count)
}

// gen builds every input of the run from the seed.
func (b *bench) gen() error {
	var err error
	b.docs, err = genDocs(b.sp.corpus, b.sp.scale, b.sp.inputs, b.sp.streamOps, 90)
	if err != nil {
		return err
	}
	for d := 0; d < b.sp.docs; d++ {
		b.ids = append(b.ids, fmt.Sprintf("%s-%03d", b.sp.name, d))
		b.pool = append(b.pool, d%b.sp.inputs)
	}
	b.writes = make([]int, b.sp.docs)
	b.sampleIDs = b.ids[:b.sp.inputs]
	if b.sp.writeRate > 0 {
		for d, in := range b.docs {
			b.plans = append(b.plans, newRenamePlan(in.final, renameSlots, b.sp.renameBatch, renameSeed+int64(d)))
		}
	}
	if b.sp.name == "ingest" {
		b.sched = workload.ZipfFleet(b.streams(), batchOps, zipfSkew, scheduleSeed)
	}
	if b.sp.budgetDiv > 0 {
		// The budget is a share of what the fleet keeps resident when
		// unbounded: per input, one freshly opened Store of it, times
		// its clones.
		var unbounded int64
		for _, in := range b.docs {
			g, _ := sltgrammar.Compress(in.seed)
			unbounded += sltgrammar.NewStore(g).ResidentBytes() * int64(b.sp.docs/b.sp.inputs)
		}
		b.budget = unbounded / b.sp.budgetDiv
	}
	return nil
}

func (b *bench) streams() [][]update.Op {
	out := make([][]update.Op, len(b.docs))
	for d, in := range b.docs {
		out[d] = in.stream
	}
	return out
}

// partition splits a fleet schedule over the connections: document d
// always rides connection d mod conns, so per-document order holds.
func partition(sched []workload.FleetBatch) [][]workload.FleetBatch {
	out := make([][]workload.FleetBatch, conns)
	for _, fb := range sched {
		out[fb.Doc%conns] = append(out[fb.Doc%conns], fb)
	}
	return out
}

// setup makes f ready to serve: TreeRePair compression of the opened
// grammars and Open over the wire. tr records its calls.
func (b *bench) setup(f *fleet, tr *tracer) error {
	root := tr.record("setup", 0, tr.newReq(), time.Now(), time.Now())
	t0 := time.Now()
	b.seedGs = make([]*sltgrammar.Grammar, len(b.docs))
	for d, in := range b.docs {
		c0 := time.Now()
		b.seedGs[d], _ = sltgrammar.Compress(in.seed)
		tr.record("treerepair.Compress", root, tr.newReq(), c0, time.Now())
	}
	b.compressS = time.Since(t0).Seconds()
	admin, err := sltgrammar.DialServer(f.addr)
	if err != nil {
		return err
	}
	defer admin.Close()
	for d, id := range b.ids {
		c0 := time.Now()
		if err := admin.Open(id, b.seedGs[b.pool[d]]); err != nil {
			return fmt.Errorf("open %s: %w", id, err)
		}
		tr.record("wire.open", root, tr.newReq(), c0, time.Now())
	}
	tr.setEnd(root, time.Now())
	return nil
}

func appliers(ws []*sltgrammar.RetryClient) []applier {
	out := make([]applier, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// verifySetup checks, outside the set-up timing, that every sampled
// document derives the tree it should: the seed document on ingest,
// the corpus document on tiered.
func (b *bench) verifySetup(f *fleet) error {
	for d := range b.sampleIDs {
		g, err := f.ss.Snapshot(b.ids[d])
		if err != nil {
			return err
		}
		want := b.docs[b.pool[d]].final
		if b.sp.name == "ingest" {
			want = b.docs[d].seed
		}
		if msg := sameTree(g, want); msg != "" {
			return fmt.Errorf("set-up produced a wrong document %s: %s", b.ids[d], msg)
		}
	}
	return nil
}

// sameTree compares the tree g derives with want, label by label.
// It returns "" when they are equal and a description otherwise.
func sameTree(g *sltgrammar.Grammar, want *xmltree.Document) string {
	got, err := g.Expand(0)
	if err != nil {
		return fmt.Sprintf("expand: %v", err)
	}
	var pos int64
	var walk func(a, w *xmltree.Node) string
	walk = func(a, w *xmltree.Node) string {
		if la, lw := g.Syms.Name(a.Label.ID), want.Syms.Name(w.Label.ID); la != lw {
			return fmt.Sprintf("preorder %d is %q, want %q", pos, la, lw)
		}
		if len(a.Children) != len(w.Children) {
			return fmt.Sprintf("preorder %d has %d children, want %d", pos, len(a.Children), len(w.Children))
		}
		pos++
		for i := range a.Children {
			if msg := walk(a.Children[i], w.Children[i]); msg != "" {
				return msg
			}
		}
		return ""
	}
	return walk(got, want.Root)
}

// loadPhase builds the timed load of the workload over the given
// endpoints. On ingest it is the closed-loop write phase, each
// connection sending a batch every pace at most (0 = as soon as the
// previous ack is in); the read probe is built by probePhase once the
// writes are known. On tiered pace is unused.
func (b *bench) loadPhase(name, prefix string, dur, pace time.Duration, f *fleet, writers []applier, reader pointReader, rngSeed int64) *phase {
	p := &phase{name: name, prefix: prefix, dur: dur, ids: b.ids, writers: writers,
		sampleEvery: b.sp.sampleEvery, sample: b.edgesSampler(f)}
	if b.sp.name == "ingest" {
		p.closed = partition(b.sched)
		p.closedEvery = pace
		return p
	}
	rng := rand.New(rand.NewSource(rngSeed))
	readDoc := newZipfPicker(rng, len(b.ids)).next
	writeDoc := newZipfPicker(rand.New(rand.NewSource(rngSeed+1)), len(b.ids)).next
	p.writeRate = b.sp.writeRate
	p.nextWrite = func() (int, []update.Op) {
		d := writeDoc()
		k := b.writes[d]
		b.writes[d]++
		return d, b.plans[b.pool[d]].batch(k)
	}
	p.reader, p.readRate = reader, b.sp.readRate
	p.nextRead = func() (int, int64) {
		d := readDoc()
		el := b.docs[b.pool[d]].elems
		return d, el[rng.Intn(len(el))]
	}
	p.check = b.readCheck(nil)
	return p
}

// paceEvery is the interval between the batches of one of ingest's
// writer connections in a latency round.
func (b *bench) paceEvery() time.Duration {
	return time.Duration(float64(time.Second) * conns * batchOps / b.sp.paceOps)
}

// edgesSampler returns Σ|G| / Σ elements over the sampled documents.
func (b *bench) edgesSampler(f *fleet) func() float64 {
	return func() float64 {
		var g, e float64
		for _, id := range b.sampleIDs {
			st, ok := f.ss.Get(id)
			if !ok {
				continue
			}
			s := st.Stats()
			g += float64(s.Size)
			e += float64(s.Elements)
		}
		return frac(g, e)
	}
}

// ingestRef is the expected state of one ingest document: the seed
// document with the acked prefix of its stream applied.
type ingestRef struct {
	doc    *xmltree.Document
	labels []string
	elems  []int64
}

func (b *bench) ingestRefs(acked [][]workload.FleetBatch) ([]*ingestRef, error) {
	n := make([]int, len(b.docs))
	for _, c := range acked {
		for _, fb := range c {
			n[fb.Doc] += len(fb.Ops)
		}
	}
	refs := make([]*ingestRef, len(b.docs))
	for d, in := range b.docs {
		root, err := update.ApplyTreeAll(in.final.Syms, in.seed.Root.Copy(), in.stream[:n[d]])
		if err != nil {
			return nil, fmt.Errorf("reference of %s: %w", b.ids[d], err)
		}
		doc := &xmltree.Document{Syms: in.final.Syms, Root: root}
		if n[d] == len(in.stream) && !xmltree.Equal(root, in.final.Root) {
			return nil, fmt.Errorf("reference of %s does not rebuild the corpus document", b.ids[d])
		}
		r := &ingestRef{doc: doc}
		r.labels, r.elems = preorder(doc)
		refs[d] = r
	}
	return refs, nil
}

// probePhase is ingest's read probe: open-loop point reads on the
// ingested documents, checked against the reference.
func (b *bench) probePhase(name, prefix string, dur time.Duration, reader pointReader, refs []*ingestRef, rngSeed int64) *phase {
	rng := rand.New(rand.NewSource(rngSeed))
	return &phase{name: name, prefix: prefix, dur: dur, ids: b.ids, reader: reader, readRate: b.sp.readRate,
		nextRead: func() (int, int64) {
			d := rng.Intn(len(refs))
			return d, refs[d].elems[rng.Intn(len(refs[d].elems))]
		},
		check: b.readCheck(refs),
	}
}

// snapshotter returns a document's current grammar: over the wire or
// in process.
type snapshotter func(id string) (*sltgrammar.Grammar, error)

// checkIngest is ingest's final-state oracle: every document must hold
// the reference's element count and derive the reference tree. A
// wrong document counts its acked ops as failed.
func (b *bench) checkIngest(snap snapshotter, refs []*ingestRef, acked [][]workload.FleetBatch) {
	n := make([]int64, len(b.docs))
	for _, c := range acked {
		for _, fb := range c {
			n[fb.Doc] += int64(len(fb.Ops))
		}
	}
	for d, id := range b.ids {
		g, err := snap(id)
		msg := ""
		if err != nil {
			msg = fmt.Sprintf("snapshot: %v", err)
		} else if el, err := sltgrammar.Elements(g); err != nil || el != int64(len(refs[d].elems)) {
			msg = fmt.Sprintf("%d elements (%v), want %d", el, err, len(refs[d].elems))
		} else {
			msg = sameTree(g, refs[d].doc)
		}
		if msg != "" {
			b.failed += max(n[d], 1)
			b.wrong = append(b.wrong, fmt.Sprintf("%s final state: %s", id, msg))
		}
	}
}

// account adds a phase's ops to the run's totals.
func (b *bench) account(st *phaseStats) {
	b.attempted += st.attempted()
	b.failed += st.failed()
	b.wrong = append(b.wrong, st.wrongMsgs...)
}

// wireEndpoints opens the load's connections: conns sequence-stamping
// writers on ingest; one writer and one reader otherwise.
func (b *bench) wireEndpoints(f *fleet) ([]*sltgrammar.RetryClient, *sltgrammar.ServerClient, error) {
	nw := conns
	if b.sp.name != "ingest" {
		nw = 1
	}
	ws, err := dialWriters(f.addr, nw, b.o.seed)
	if err != nil {
		return nil, nil, err
	}
	rd, err := sltgrammar.DialServer(f.addr)
	if err != nil {
		closeAll(ws)
		return nil, nil, err
	}
	return ws, rd, nil
}

// wireRun is one timed stretch of the workload over the wire: writes
// and reads side by side for dur, or on ingest one round: the whole
// schedule replayed with each connection's batches pace apart at most,
// then, if probe is set, the read probe, and the final-state oracle.
// It returns the write and the read side's stats (the same value
// except on ingest, where the read side is empty without a probe).
func (b *bench) wireRun(name string, f *fleet, dur, pace time.Duration, probe bool, tr *tracer, hook func(*phase)) (w, r *phaseStats, refs []*ingestRef, err error) {
	ws, rd, err := b.wireEndpoints(f)
	if err != nil {
		return nil, nil, nil, err
	}
	defer closeAll(ws)
	defer rd.Close()
	if b.sp.name == "ingest" {
		dur = maxRound
	}
	p := b.loadPhase(name, "wire", dur, pace, f, appliers(ws), rd, b.o.seed*7+1)
	if hook != nil {
		hook(p)
	}
	w = runPhase(p, tr, f)
	b.account(w)
	if b.sp.name != "ingest" {
		return w, w, nil, nil
	}
	w.dur = w.lastAck // the round ran until its last ack, not to maxRound
	if refs, err = b.ingestRefs(w.acked); err != nil {
		return nil, nil, nil, err
	}
	r = &phaseStats{}
	if probe {
		// The probe reads the ingested documents once background
		// recompressions have settled, so it measures the read path and
		// not the tail of the write burst.
		if err := rd.Quiesce(); err != nil {
			return nil, nil, nil, err
		}
		pp := b.probePhase(name+".probe", "wire", b.sp.probe, rd, refs, b.o.seed*7+2)
		if hook != nil {
			hook(pp)
		}
		r = runPhase(pp, tr, f)
		b.account(r)
	}
	b.checkIngest(rd.Snapshot, refs, w.acked)
	return w, r, refs, nil
}

// endToEnd turns a timed stretch into the end-to-end metrics. The
// latency quantiles and read_ok_frac are taken over every sample of
// the stretch. write_ops_per_s is acked ops over the
// time from the stretch's start to its last ack. peak_heap_mb is the median over
// heapWindow windows of each window's peak, so one late GC cycle moves
// one window, not the run.
func (b *bench) endToEnd(w, r *phaseStats) map[string]metric {
	var ok int
	for _, x := range r.readLog {
		if x.ok {
			ok++
		}
	}
	heap := windows(w.heap, w.dur)
	if r != w {
		heap = append(heap, windows(r.heap, r.dur)...)
	}
	return map[string]metric{
		"setup_s":           {median(b.setupS), "s"},
		"write_ops_per_s":   {frac(float64(w.writeOps), w.lastAck.Seconds()), "ops/s"},
		"write_p50_ms":      {ms(latQuantile(w.writes, 0.50, all)), "ms"},
		"write_p90_ms":      {ms(latQuantile(w.writes, 0.90, all)), "ms"},
		"write_p99_ms":      {ms(latQuantile(w.writes, 0.99, all)), "ms"},
		"read_p50_ms":       {ms(latQuantile(r.readLog, 0.50, answered)), "ms"},
		"read_p90_ms":       {ms(latQuantile(r.readLog, 0.90, answered)), "ms"},
		"read_p99_ms":       {ms(latQuantile(r.readLog, 0.99, answered)), "ms"},
		"read_ok_frac":      {frac(float64(ok), float64(len(r.readLog))), "frac"},
		"edges_per_element": {mean(w.edges), "edges/element"},
		"peak_heap_mb":      {windowMedian(heap, peakMB), "MB"},
	}
}

// ungated are end-to-end metrics the run prints but leaves out of its
// result: over ten seeds they spread more than any bound a regression
// check could hold them to (see README.md).
var ungated = []string{"write_p90_ms", "write_p99_ms", "read_p99_ms"}

func gated(m map[string]metric) map[string]metric {
	for _, k := range ungated {
		delete(m, k)
	}
	return m
}

// report prints one stretch's numbers and flags a run whose load fell
// behind its offered rate: its latencies describe a saturated system,
// not a slow one.
func (b *bench) report(label string, w, r *phaseStats, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, " %s=%.4g%s", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(b.w, "%s: %d write ops in %d batches, %d reads;%s\n",
		label, w.writeOps, w.writeBatches, r.reads, sb.String())
	if f := b.writeRateFrac(w); f < behindFrac {
		fmt.Fprintf(b.w, "FLAG %s: writers behind their offered rate (%.2f of it)\n", label, f)
	}
	if f := rateFrac(r.reads, r.offeredR); r.offeredR > 0 && f < behindFrac {
		fmt.Fprintf(b.w, "FLAG %s: reader behind its offered rate: %d of %d reads sent (%.2f)\n", label, r.reads, r.offeredR, f)
	}
}

// behindFrac is the share of the offered load below which a run is
// flagged as saturated.
const behindFrac = 0.95

func rateFrac(done, offered int64) float64 {
	if offered == 0 {
		return 1
	}
	return float64(done) / float64(offered)
}

// writeRateFrac is the share of the offered write rate a stretch
// achieved: batches sent over batches due for the open-loop writer,
// acked ops per second over paceOps for ingest's paced writers. An
// unpaced stretch offers no rate and reports 1.
func (b *bench) writeRateFrac(w *phaseStats) float64 {
	if w.closed {
		if w.pace == 0 {
			return 1
		}
		return frac(float64(w.writeOps), w.lastAck.Seconds()) / b.sp.paceOps
	}
	return rateFrac(w.writeBatches, w.offeredW)
}

// untraced is the end-to-end run.
func (b *bench) untraced(f *fleet) (map[string]metric, error) {
	if b.sp.name == "ingest" {
		return b.ingestRounds(f)
	}
	w, r, _, err := b.wireRun("phase", f, b.duration(), 0, false, nil, nil)
	if err != nil {
		return nil, err
	}
	m := b.endToEnd(w, r)
	b.report("e2e", w, r, m)
	return gated(m), nil
}

// maxRound caps one ingest round, so a run whose server stalls still
// ends in time.
const maxRound = 60 * time.Second

// ingestRounds measures ingest in rounds: each replays every
// document's whole stream into freshly set-up documents, so each round
// ends at the corpus documents and does the same work. Rounds come in
// ingestGroups groups, each of a latency round, its writers paced to
// paceOps and followed by the read probe, then thrPerLat throughput
// rounds, their writers sending each batch as soon as the previous ack
// is in. The latencies, edges_per_element and peak_heap_mb come from
// the latency rounds and the read metrics from their probes, with the
// samples of all rounds pooled; peak_heap_mb is the median of the
// rounds' peaks. write_ops_per_s is the median of the throughput
// rounds' rates: a round lasts about two seconds and its rate moves
// with how many background recompressions it meets.
func (b *bench) ingestRounds(f *fleet) (map[string]metric, error) {
	var lat, probes []*phaseStats
	var peaks, rates []float64
	t0 := time.Now()
	for r := 0; r < b.ingestGroups()*(thrPerLat+1); r++ {
		if r > 0 {
			var err error
			if f, err = b.newFleet(false); err != nil {
				return nil, err
			}
			t := time.Now()
			err = b.setup(f, nil)
			b.setupS = append(b.setupS, time.Since(t).Seconds())
			if err != nil {
				f.close()
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		latency := r%(thrPerLat+1) == 0
		pace, kind := b.paceEvery(), "latency"
		if !latency {
			pace, kind = 0, "throughput"
		}
		w, rd, _, err := b.wireRun(fmt.Sprintf("round%d", r), f, 0, pace, latency, nil, nil)
		if r > 0 {
			if cerr := f.close(); err == nil && cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			return nil, err
		}
		m := b.endToEnd(w, rd)
		b.report(fmt.Sprintf("round %d (%s)", r, kind), w, rd, m)
		if latency {
			lat = append(lat, w)
			probes = append(probes, rd)
			peaks = append(peaks, m["peak_heap_mb"].Value)
		} else {
			rates = append(rates, m["write_ops_per_s"].Value)
		}
	}
	out := b.endToEnd(pool(lat), pool(probes))
	out["write_ops_per_s"] = metric{median(rates), "ops/s"}
	out["peak_heap_mb"] = metric{median(peaks), "MB"}
	fmt.Fprintf(b.w, "ingest: %d latency and %d throughput rounds in %.1f s\n", len(lat), len(rates), time.Since(t0).Seconds())
	b.report("e2e", pool(lat), pool(probes), out)
	return gated(out), nil
}

// thrPerLat is the number of throughput rounds that follow each of
// ingest's latency rounds. A throughput round is short, so its rate
// needs more of them to be steady.
const thrPerLat = 3

// ingestGroups is the number of round groups that fill the run's
// seconds, at least one. Every run of the same seconds does the same
// work, whatever the host's speed: a group's nominal length is its
// paced round plus the probe plus thrPerLat throughput rounds of about
// thrRound each.
func (b *bench) ingestGroups() int {
	paced := float64(b.sp.streamOps*b.sp.inputs) / b.sp.paceOps
	group := paced + b.sp.probe.Seconds() + thrPerLat*thrRound.Seconds()
	return max(1, int(math.Round(b.o.seconds/group)))
}

// thrRound is the nominal length of a throughput round.
const thrRound = 2 * time.Second

// pool merges the samples and counts of several stretches of one kind.
func pool(stats []*phaseStats) *phaseStats {
	out := &phaseStats{}
	for _, s := range stats {
		out.writes = append(out.writes, s.writes...)
		out.readLog = append(out.readLog, s.readLog...)
		out.edges = append(out.edges, s.edges...)
		out.lastAck += s.lastAck
		out.dur += s.dur
		out.writeOps += s.writeOps
		out.writeBatches += s.writeBatches
		out.reads += s.reads
		out.offeredR += s.offeredR
		out.closed, out.pace = s.closed, s.pace
	}
	return out
}

func (b *bench) duration() time.Duration {
	return time.Duration(b.o.seconds * float64(time.Second))
}

// stamp prints the host and configuration the run measures.
func (b *bench) stamp() {
	cfg := sltgrammar.StoreConfig{Async: true, MemoryBudget: b.budget}
	dur := "in-memory"
	if b.sp.durable {
		dur = "durable, WAL fsync=batch"
	}
	budget := "unbounded"
	if b.sp.budgetDiv > 0 {
		budget = fmt.Sprintf("1/%d of the unbounded fleet's resident bytes", b.sp.budgetDiv)
	}
	fmt.Fprintf(b.w, "stamp: workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n",
		b.sp.name, b.o.seed, b.o.seconds, b.o.trace, numCPU(), gomaxprocs(), cpuModel(), goVersion())
	fmt.Fprintf(b.w, "stamp: StoreConfig=%+v durability=%s memory=%s shards=%d conns=%d corpus=%s scale=%g docs=%d\n",
		cfg, dur, budget, shards, conns, b.sp.corpus, b.sp.scale, b.sp.docs)
}
