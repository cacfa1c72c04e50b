package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of d (sorted in place).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime counters read through runtime/metrics.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: mAllocObjs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the Go heap in use while it runs, every
// heapSampleEvery.
type heapSampler struct {
	t0      time.Time
	stop    chan struct{}
	done    chan struct{}
	samples []sample
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler(t0 time.Time) *heapSampler {
	h := &heapSampler{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapObjects}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, sample{at: time.Since(h.t0), n: int64(s[0].Value.Uint64())})
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples.
func (h *heapSampler) finish() []sample {
	close(h.stop)
	<-h.done
	return h.samples
}

// heapWindow is the length of the windows peak_heap_mb is taken over.
const heapWindow = 2 * time.Second

// windows splits samples taken over a stretch of length dur into
// windows of about heapWindow (at least one) by their offset.
func windows(samples []sample, dur time.Duration) [][]sample {
	n := max(1, int(dur/heapWindow))
	out := make([][]sample, n)
	for _, s := range samples {
		i := max(0, min(int(int64(s.at)*int64(n)/int64(max(dur, 1))), n-1))
		out[i] = append(out[i], s)
	}
	return out
}

// windowMedian computes f on each non-empty window and returns the
// median of the results.
func windowMedian(ws [][]sample, f func([]sample) float64) float64 {
	var v []float64
	for _, w := range ws {
		if len(w) > 0 {
			v = append(v, f(w))
		}
	}
	return median(v)
}

// peakMB is the largest heap sample of a window, in MB.
func peakMB(ws []sample) float64 {
	var p int64
	for _, s := range ws {
		p = max(p, s.n)
	}
	return float64(p) / 1e6
}

// Sample filters for latQuantile.
func all(sample) bool        { return true }
func answered(s sample) bool { return s.n > 0 } // a read answered correctly

// latQuantile is the q-quantile of the latencies of samples that pass keep.
func latQuantile(s []sample, q float64, keep func(sample) bool) time.Duration {
	var d []time.Duration
	for _, x := range s {
		if keep(x) {
			d = append(d, x.lat)
		}
	}
	return quantile(d, q)
}

// countingListener counts every byte the server reads and writes on
// the connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// span is one timed call: a wire round trip or a direct call into a
// layer. Spans of one request share Req; Parent is the ID of the span
// that caused it (the phase span for top-level calls).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request ID.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.req.Add(1)
}

// record stores a span and returns its ID.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// setEnd sets the end time of span id.
func (t *tracer) setEnd(id int32, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
