package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestReadFrameHeaderOnlyAllocBound pins that a frame's buffer grows
// with the bytes that actually arrive: a 4-byte header claiming
// MaxFramePayload followed by EOF must not make the reader allocate
// anything near the claimed 64 MiB. Server and client share readFrame,
// so this bounds what a hostile peer can make either side hold.
func TestReadFrameHeaderOnlyAllocBound(t *testing.T) {
	header := binary.AppendUvarint(nil, MaxFramePayload)
	br := bufio.NewReader(bytes.NewReader(header))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(br, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only frame decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header-only frame allocated %d bytes", got)
	}
}

// TestReadFrameGrowsAcrossSteps round-trips a frame of about 1 MiB —
// many growth steps — delivered one byte per read, then reuses the
// grown scratch for a small frame, and checks that a frame fitting one
// step still costs a single allocation.
func TestReadFrameGrowsAcrossSteps(t *testing.T) {
	big := make([]byte, 1<<20+12345)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte("small payload")
	var stream []byte
	for _, p := range [][]byte{big, small} {
		var err error
		if stream, err = AppendFrame(stream, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(stream)))
	got, scratch, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("multi-step frame payload corrupted")
	}
	if got, _, err = readFrame(br, scratch); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("reused scratch: payload %q, err %v", got, err)
	}

	frame, err := AppendFrame(nil, small)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	br = bufio.NewReader(r)
	if allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		br.Reset(r)
		if _, _, err := readFrame(br, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("small frame took %.1f allocations, want 1", allocs)
	}
}
