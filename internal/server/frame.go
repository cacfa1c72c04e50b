// Package server is the network serving front-end over a ShardedStore:
// a length-framed binary wire protocol carrying the existing update-op
// codec for writes and the grammar codec / point-query results for
// reads, over plain TCP. One frame is one request or one response:
//
//	frame := len uvarint | payload | crc32c(payload) LE uint32
//
// — the same CRC-framed record shape as the write-ahead log, so a batch
// accepted from the wire is byte-compatible with the batch the WAL
// journals. The payload is a one-byte message type followed by the
// type's body (see wire.go).
//
// The frame decoder treats the network as hostile, exactly like the WAL
// treats a file on disk: every declared length is clamped before it
// sizes an allocation, a bad CRC or torn frame is a protocol defect,
// and a connection that commits a protocol defect is closed — never
// answered, never resynchronized, never failed open.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFramePayload bounds one frame's payload, matching the WAL's record
// cap: the two transports carry the same batch payloads, so they share
// one bound.
const MaxFramePayload = 1 << 26

// castagnoli is the CRC32C table every frame checksum uses (the WAL's).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends the framed encoding of payload to dst and returns
// the extended slice. Oversized payloads are rejected at encode time —
// they could never decode.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("server: frame payload of %d bytes exceeds %d", len(payload), MaxFramePayload)
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// DecodeFrame parses one frame from the front of data and returns its
// payload (aliasing data) and the bytes consumed. Any defect — torn
// length varint, length past MaxFramePayload, short payload or
// checksum, CRC mismatch — is an error, never a panic or an oversized
// allocation.
func DecodeFrame(data []byte) (payload []byte, n int, err error) {
	ln, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, 0, fmt.Errorf("server: torn frame length")
	}
	if ln > MaxFramePayload {
		return nil, 0, fmt.Errorf("server: frame length %d exceeds %d", ln, MaxFramePayload)
	}
	body := w
	if uint64(len(data)-body) < ln+4 {
		return nil, 0, fmt.Errorf("server: short frame (%d of %d+4 bytes)", len(data)-body, ln)
	}
	payload = data[body : body+int(ln)]
	want := binary.LittleEndian.Uint32(data[body+int(ln):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("server: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return payload, body + int(ln) + 4, nil
}

// frameStep is the first buffer a frame larger than the caller's scratch
// gets before any of its payload has arrived; later steps double.
const frameStep = 64 << 10

// readFrame reads one frame from a stream into scratch (grown as
// needed) and returns the payload plus the possibly-regrown scratch for
// reuse. The length is validated before any allocation, and the buffer
// then grows only as payload bytes actually arrive — one bounded step,
// then doubling, never past the declared length — so a header that
// claims MaxFramePayload and sends nothing costs frameStep, not 64 MiB.
// A frame that fits one step still takes a single allocation. Every
// other defect matches DecodeFrame's.
func readFrame(br *bufio.Reader, scratch []byte) (payload, grown []byte, err error) {
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, scratch, err
	}
	if ln > MaxFramePayload {
		return nil, scratch, fmt.Errorf("server: frame length %d exceeds %d", ln, MaxFramePayload)
	}
	need := int(ln) + 4
	buf := scratch[:0]
	for len(buf) < need {
		if len(buf) == cap(buf) {
			next := make([]byte, len(buf), min(need, max(2*cap(buf), frameStep)))
			copy(next, buf)
			buf = next
		}
		n, err := io.ReadFull(br, buf[len(buf):min(need, cap(buf))])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, buf, fmt.Errorf("server: short frame: %w", err)
		}
	}
	payload = buf[:ln]
	want := binary.LittleEndian.Uint32(buf[ln:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, buf, fmt.Errorf("server: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	return payload, buf, nil
}

// writeFrame frames payload into scratch and writes it to bw as one
// Write call, returning the reusable scratch.
func writeFrame(bw *bufio.Writer, scratch, payload []byte) ([]byte, error) {
	scratch, err := AppendFrame(scratch[:0], payload)
	if err != nil {
		return scratch, err
	}
	_, err = bw.Write(scratch)
	return scratch, err
}
