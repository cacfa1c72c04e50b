package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	sltgrammar "repro"
	"repro/internal/update"
	"repro/internal/workload"
)

// fleet is the system under test: a ShardedStore served over a
// loopback listener.
type fleet struct {
	ss    *sltgrammar.ShardedStore
	srv   *sltgrammar.Server
	addr  string
	bytes *atomic.Int64 // bytes the server read and wrote; nil when not counted
	dir   string        // WAL directory of a durable fleet, removed by close
}

// startFleet opens a fleet with cfg. count wraps the listener so the
// server's bytes in and out are counted (traced runs only).
func startFleet(cfg sltgrammar.StoreConfig, count bool) (*fleet, error) {
	f := &fleet{}
	var err error
	if cfg.Durability != nil {
		f.dir = cfg.Durability.Dir
		if f.ss, err = sltgrammar.OpenShardedStore(shards, cfg); err != nil {
			return nil, fmt.Errorf("open durable fleet: %w", err)
		}
	} else {
		f.ss = sltgrammar.NewShardedStore(shards, cfg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.ss.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var l net.Listener = ln
	if count {
		f.bytes = new(atomic.Int64)
		l = countingListener{Listener: ln, n: f.bytes}
	}
	f.srv = sltgrammar.Serve(l, f.ss)
	f.addr = f.srv.Addr().String()
	return f, nil
}

func (f *fleet) close() error {
	f.srv.Close()
	err := f.ss.Close()
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func (f *fleet) counted() int64 {
	if f.bytes == nil {
		return 0
	}
	return f.bytes.Load()
}

// applier and pointReader are the two calls the load makes. Over the
// wire they are a RetryClient (sequence-stamped applies) and a plain
// ServerClient; in process they are the ShardedStore itself.
type applier interface {
	Apply(id string, ops []update.Op) error
}

type pointReader interface {
	PointQuery(id string, pre int64) (string, error)
}

// localWriter applies sequence-stamped batches straight into the
// ShardedStore, continuing each document's sequence chain the way a
// RetryClient does over the wire.
type localWriter struct {
	ss  *sltgrammar.ShardedStore
	seq map[string]uint64
}

func newLocalWriter(ss *sltgrammar.ShardedStore) *localWriter {
	return &localWriter{ss: ss, seq: make(map[string]uint64)}
}

func (w *localWriter) Apply(id string, ops []update.Op) error {
	s, ok := w.seq[id]
	if !ok {
		last, err := w.ss.LastSeq(id)
		if err != nil {
			return err
		}
		s = last + 1
	}
	if err := w.ss.ApplyAllSeq(id, ops, s); err != nil {
		delete(w.seq, id)
		return err
	}
	w.seq[id] = s + 1
	return nil
}

// dialWriters opens n sequence-stamping wire connections.
func dialWriters(addr string, n int, seed int64) ([]*sltgrammar.RetryClient, error) {
	out := make([]*sltgrammar.RetryClient, n)
	for c := range out {
		rc, err := sltgrammar.DialRetry(sltgrammar.RetryConfig{Addr: addr, Seed: seed + int64(c)})
		if err != nil {
			closeAll(out[:c])
			return nil, err
		}
		out[c] = rc
	}
	return out, nil
}

func closeAll(cs []*sltgrammar.RetryClient) {
	for _, c := range cs {
		c.Close()
	}
}

// phase describes one timed stretch of load. Writes are either closed
// loop (closed[c] is replayed by connection c, each batch sent after
// the previous ack) or open loop at writeRate batches per second on
// one connection. Reads are open loop at readRate on one connection
// and are timed from when each read was due.
type phase struct {
	name   string // span name of the phase
	prefix string // span name prefix of its calls: "wire" or "local"
	dur    time.Duration

	writers []applier
	ids     []string
	closed  [][]workload.FleetBatch
	// closedEvery paces each closed-loop connection: its k-th batch is
	// sent after the previous ack and not before k*closedEvery (0 = as
	// fast as acks come back).
	closedEvery time.Duration
	writeRate   float64
	nextWrite   func() (doc int, ops []update.Op)

	reader   pointReader
	readRate float64
	nextRead func() (doc int, pos int64)
	check    func(doc int, pos int64, label string) bool
	// capture, when set, is told about every 16th read (traced runs:
	// the navigate and isolate layers are re-run on those positions).
	capture func(doc int, pos int64)

	sampleEvery int64          // acked write ops between edges samples
	sample      func() float64 // Σ|G| / Σ elements now; nil = no samples
	onTick      func()         // traced runs: layer sampler, every tickEvery
}

const tickEvery = 25 * time.Millisecond

// phaseStats is what one phase measured.
type phaseStats struct {
	elapsed      time.Duration
	writeOps     int64
	writeBatches int64
	writeFailed  int64    // ops of batches that errored
	writes       []sample // acked batches: send time, latency, ops
	lastAck      time.Duration
	offeredW     int64 // batches due (open loop)
	acked        [][]workload.FleetBatch
	closed       bool          // closed-loop writers
	pace         time.Duration // their closedEvery

	reads     int64 // attempted
	readFail  int64 // errored
	readWrong int64 // answered with a label the oracle rejects
	readSvc   []time.Duration
	readLog   []sample // every read attempted: due time, latency, ok
	late      []time.Duration
	offeredR  int64
	wrongMsgs []string

	edges    []float64
	dur      time.Duration // the phase's planned length
	heap     []sample      // heap in use (n, bytes) over time
	rtBefore runtimeSample
	rtAfter  runtimeSample
	bytes    int64
}

// sample is one timed event of a phase: at is its offset from the
// phase start (send time of a write, due time of a read).
type sample struct {
	at, lat time.Duration
	n       int64 // ops of a write batch; 1 for an answered read; bytes of a heap sample
	ok      bool  // read answered correctly within okWithin
}

func (s *phaseStats) attempted() int64 { return s.writeOps + s.writeFailed + s.reads }
func (s *phaseStats) failed() int64    { return s.writeFailed + s.readFail + s.readWrong }

// runPhase drives p and returns what it measured. tr records a span
// per call when non-nil.
func runPhase(p *phase, tr *tracer, f *fleet) *phaseStats {
	st := &phaseStats{}
	phaseStart := time.Now()
	root := tr.record(p.name, 0, tr.newReq(), phaseStart, phaseStart)
	end := phaseStart.Add(p.dur)
	st.dur = p.dur
	st.closed, st.pace = p.closed != nil, p.closedEvery
	heap := startHeapSampler(phaseStart)
	bytes0 := f.counted()
	st.rtBefore = readRuntime()

	var ackedOps atomic.Int64
	samples := make(chan struct{}, 1)
	var mu sync.Mutex // guards the write-side fields of st
	acked := func(n int64) {
		if p.sample == nil {
			return
		}
		before := ackedOps.Add(n) - n
		if (before+n)/p.sampleEvery > before/p.sampleEvery {
			select {
			case samples <- struct{}{}:
			default:
			}
		}
	}
	writeDone := func(t0, t1 time.Time, ops []update.Op, err error) {
		tr.record(p.prefix+".apply", root, tr.newReq(), t0, t1)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			st.writeFailed += int64(len(ops))
			if len(st.wrongMsgs) < 5 {
				st.wrongMsgs = append(st.wrongMsgs, fmt.Sprintf("write failed: %v", err))
			}
			return
		}
		st.writeOps += int64(len(ops))
		st.writeBatches++
		st.writes = append(st.writes, sample{at: t0.Sub(phaseStart), lat: t1.Sub(t0), n: int64(len(ops))})
		st.lastAck = max(st.lastAck, t1.Sub(phaseStart))
	}

	var wg sync.WaitGroup
	if p.closed != nil {
		st.acked = make([][]workload.FleetBatch, len(p.closed))
		for c := range p.closed {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k, fb := range p.closed[c] {
					if d := time.Until(phaseStart.Add(time.Duration(k) * p.closedEvery)); d > 0 {
						time.Sleep(d)
					}
					if !time.Now().Before(end) {
						return
					}
					t0 := time.Now()
					err := p.writers[c].Apply(p.ids[fb.Doc], fb.Ops)
					writeDone(t0, time.Now(), fb.Ops, err)
					if err != nil {
						return // a sequenced stream cannot skip a batch
					}
					st.acked[c] = append(st.acked[c], fb)
					acked(int64(len(fb.Ops)))
				}
			}(c)
		}
	}
	if p.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / p.writeRate)
			for i := 0; ; i++ {
				due := phaseStart.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				st.offeredW++
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if !time.Now().Before(end) {
					return
				}
				doc, ops := p.nextWrite()
				t0 := time.Now()
				err := p.writers[0].Apply(p.ids[doc], ops)
				writeDone(t0, time.Now(), ops, err)
				if err == nil {
					acked(int64(len(ops)))
				}
			}
		}()
	}
	if p.readRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / p.readRate)
			for i := 0; ; i++ {
				due := phaseStart.Add(time.Duration(i) * interval)
				if !due.Before(end) {
					return
				}
				st.offeredR++
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if !time.Now().Before(end) {
					return
				}
				doc, pos := p.nextRead()
				t0 := time.Now()
				label, err := p.reader.PointQuery(p.ids[doc], pos)
				t1 := time.Now()
				tr.record(p.prefix+".point_query", root, tr.newReq(), t0, t1)
				st.reads++
				st.late = append(st.late, t0.Sub(due))
				rec := sample{at: due.Sub(phaseStart), lat: t1.Sub(due)}
				answered := false
				switch {
				case err != nil:
					st.readFail++
					if len(st.wrongMsgs) < 5 {
						st.wrongMsgs = append(st.wrongMsgs, fmt.Sprintf("read %s@%d failed: %v", p.ids[doc], pos, err))
					}
				case !p.check(doc, pos, label):
					st.readWrong++
					if len(st.wrongMsgs) < 5 {
						st.wrongMsgs = append(st.wrongMsgs, fmt.Sprintf("read %s@%d = %q: not a label that position can hold", p.ids[doc], pos, label))
					}
				default:
					answered = true
					rec.n = 1
					st.readSvc = append(st.readSvc, t1.Sub(t0))
					rec.ok = rec.lat <= okWithin
				}
				st.readLog = append(st.readLog, rec)
				if !answered {
					continue
				}
				if p.capture != nil && i%16 == 0 {
					p.capture(doc, pos)
				}
			}
		}()
	}

	// Side goroutines: the edges sampler (by acked ops) and the traced
	// layer sampler (by time). Both stop when the load has finished.
	stop := make(chan struct{})
	var side sync.WaitGroup
	if p.sample != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			for {
				select {
				case <-stop:
					return
				case <-samples:
					v := p.sample()
					mu.Lock()
					st.edges = append(st.edges, v)
					mu.Unlock()
				}
			}
		}()
	}
	if p.onTick != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			t := time.NewTicker(tickEvery)
			defer t.Stop()
			for {
				p.onTick()
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	side.Wait()

	st.elapsed = time.Since(phaseStart)
	st.rtAfter = readRuntime()
	st.heap = heap.finish()
	st.bytes = f.counted() - bytes0
	if p.sample != nil && len(st.edges) == 0 {
		st.edges = append(st.edges, p.sample())
	}
	tr.setEnd(root, time.Now())
	return st
}
