package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestReadFrameBufferRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Encode(&Query{ID: 7, Engine: Array, SQL: "select sum(x)"})
	if err := WriteFrame(&buf, FrameQuery, want); err != nil {
		t.Fatal(err)
	}
	ft, fb, err := ReadFrameBuffer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FrameQuery {
		t.Fatalf("frame type = %s, want query", ft)
	}
	if !bytes.Equal(fb.Bytes(), want) {
		t.Fatalf("payload mismatch: %x vs %x", fb.Bytes(), want)
	}
	q, err := decodeAs[Query](fb.Bytes())
	fb.Release()
	if err != nil || q.ID != 7 || q.SQL != "select sum(x)" {
		t.Fatalf("decode after pooled read: %+v, %v", q, err)
	}
}

// A hostile length prefix must be rejected before any buffer — pooled or
// heap — is sized from it. This is the attacker-supplied-length guard:
// only the 5-byte header is read, nothing is allocated.
func TestReadFrameBufferRejectsOversizedLength(t *testing.T) {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxPayload+1)
	hdr[4] = byte(FrameQuery)
	_, fb, err := ReadFrameBuffer(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err = %v, want size error", err)
	}
	if fb != nil {
		t.Fatal("oversized frame returned a buffer")
	}
	// Same guard with the absolute maximum uint32 — the worst a hostile
	// peer can claim.
	binary.BigEndian.PutUint32(hdr[:4], ^uint32(0))
	if _, _, err := ReadFrameBuffer(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("max-uint32 length prefix read without error")
	}
}

func TestReadFrameBufferTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FramePing, bytes.Repeat([]byte{0xab}, 64)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	_, fb, err := ReadFrameBuffer(bytes.NewReader(full[:len(full)-1]))
	if err == nil {
		t.Fatal("truncated payload read without error")
	}
	if fb != nil {
		t.Fatal("truncated read leaked a buffer")
	}
	if _, _, err := ReadFrameBuffer(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestBufferReleaseNilAndReuse(t *testing.T) {
	var nilBuf *Buffer
	nilBuf.Release() // must not panic
	if nilBuf.Bytes() != nil {
		t.Fatal("nil buffer has bytes")
	}
	fb := getBuffer(16)
	if len(fb.b) != 16 {
		t.Fatalf("getBuffer(16) len = %d", len(fb.b))
	}
	fb.Release()
	// Oversized buffers are dropped, not pooled.
	big := getBuffer(maxPooledBuffer + 1)
	big.Release()
}

func BenchmarkWriteFramePooled(b *testing.B) {
	payload := Encode(&Query{ID: 1, Engine: Array, SQL: "select sum(x) from f group by a"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, FrameQuery, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFrameBuffer(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, Encode(&Query{ID: 1, SQL: "select"})); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, fb, err := ReadFrameBuffer(r)
		if err != nil {
			b.Fatal(err)
		}
		fb.Release()
	}
}
