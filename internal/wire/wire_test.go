package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// roundTrip pushes one frame through WriteFrame/ReadFrameBuffer.
func roundTrip(t *testing.T, ft FrameType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ft, payload); err != nil {
		t.Fatalf("WriteFrame(%s): %v", ft, err)
	}
	got, fb, err := ReadFrameBuffer(&buf)
	if err != nil {
		t.Fatalf("ReadFrameBuffer(%s): %v", ft, err)
	}
	defer fb.Release()
	if got != ft {
		t.Fatalf("frame type = %s, want %s", got, ft)
	}
	return bytes.Clone(fb.Bytes())
}

// decodeAs decodes p into a new T, returning a nil frame on error.
func decodeAs[T any, PT interface {
	*T
	Frame
}](p []byte) (PT, error) {
	f := PT(new(T))
	if err := Decode(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

func TestFrameRoundTrips(t *testing.T) {
	hello := &Hello{Version: Version}
	h, err := decodeAs[Hello](roundTrip(t, FrameHello, Encode(hello)))
	if err != nil || h.Version != Version {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}

	ack := &HelloAck{Version: Version, Server: "repro-olapd"}
	a, err := decodeAs[HelloAck](roundTrip(t, FrameHelloAck, Encode(ack)))
	if err != nil || *a != *ack {
		t.Fatalf("hello-ack round trip: %+v, %v", a, err)
	}

	q := &Query{ID: 7, Engine: Bitmap, SQL: "select sum(volume) from fact group by h01"}
	q2, err := decodeAs[Query](roundTrip(t, FrameQuery, Encode(q)))
	if err != nil || *q2 != *q {
		t.Fatalf("query round trip: %+v, %v", q2, err)
	}

	ex := &Explain{ID: 9, Engine: Auto, SQL: "explain select sum(volume) from fact"}
	ex2, err := decodeAs[Explain](roundTrip(t, FrameExplain, Encode(ex)))
	if err != nil || *ex2 != *ex {
		t.Fatalf("explain round trip: %+v, %v", ex2, err)
	}

	c := &Cancel{ID: 7}
	c2, err := decodeAs[Cancel](roundTrip(t, FrameCancel, Encode(c)))
	if err != nil || *c2 != *c {
		t.Fatalf("cancel round trip: %+v, %v", c2, err)
	}

	hd := &ResultHeader{ID: 7, Plan: "bitmap-factfile", Engine: Bitmap,
		GroupAttrs: []string{"h01", "h11"}, Aggs: []uint8{0, 1}}
	hd2, err := decodeAs[ResultHeader](roundTrip(t, FrameResultHeader, Encode(hd)))
	if err != nil {
		t.Fatalf("result-header round trip: %v", err)
	}
	if hd2.ID != hd.ID || hd2.Plan != hd.Plan || hd2.Engine != hd.Engine ||
		len(hd2.GroupAttrs) != 2 || hd2.GroupAttrs[1] != "h11" ||
		len(hd2.Aggs) != 2 || hd2.Aggs[1] != 1 {
		t.Fatalf("result-header round trip: %+v", hd2)
	}

	rb := &RowBatch{ID: 7, Rows: []Row{
		{Groups: []string{"a", "b"}, Sum: -5, Count: 2, Min: -9, Max: 4},
		{Groups: []string{"c", "d"}, Sum: 1 << 40, Count: 1, Min: 1 << 40, Max: 1 << 40},
	}}
	rb2, err := decodeAs[RowBatch](roundTrip(t, FrameRowBatch, Encode(rb)))
	if err != nil {
		t.Fatalf("row-batch round trip: %v", err)
	}
	if len(rb2.Rows) != 2 || rb2.Rows[0].Sum != -5 || rb2.Rows[0].Groups[1] != "b" ||
		rb2.Rows[1].Max != 1<<40 {
		t.Fatalf("row-batch round trip: %+v", rb2)
	}

	dn := &ResultDone{ID: 7, ElapsedNS: 123456, Rows: 42}
	dn2, err := decodeAs[ResultDone](roundTrip(t, FrameResultDone, Encode(dn)))
	if err != nil || *dn2 != *dn {
		t.Fatalf("result-done round trip: %+v, %v", dn2, err)
	}

	er := &ExplainResult{ID: 9, Chosen: "array-consolidate", Engine: Array, Text: "plan: ..."}
	er2, err := decodeAs[ExplainResult](roundTrip(t, FrameExplainResult, Encode(er)))
	if err != nil || *er2 != *er {
		t.Fatalf("explain-result round trip: %+v, %v", er2, err)
	}

	ef := &ErrorFrame{ID: 7, Code: CodeAdmission, Message: "queue full"}
	ef2, err := decodeAs[ErrorFrame](roundTrip(t, FrameError, Encode(ef)))
	if err != nil || *ef2 != *ef {
		t.Fatalf("error round trip: %+v, %v", ef2, err)
	}
	if !IsCode(ef2.Err(), CodeAdmission) {
		t.Fatalf("IsCode(CodeAdmission) = false for %v", ef2.Err())
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := decodeAs[Hello](Encode(&Hello{Version: 99})[1:]); err == nil {
		t.Fatal("truncated hello decoded")
	}
	bad := Encode(&Hello{Version: Version})
	binary.BigEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := decodeAs[Hello](bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	// A row batch claiming more rows than bytes must not allocate them.
	p := binary.BigEndian.AppendUint32(nil, 1)
	p = binary.AppendUvarint(p, 1<<40)
	if _, err := decodeAs[RowBatch](p); err == nil {
		t.Fatal("row batch with absurd count decoded")
	}
	// Trailing bytes are a protocol error.
	q := append(Encode(&Cancel{ID: 3}), 0x00)
	if _, err := decodeAs[Cancel](q); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

// TestReadFrameEOF: a stream that ends between frames is io.EOF; one
// that ends inside a frame's header is not.
func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrameBuffer(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	hdr := []byte{0, 0, 0, 1, byte(FramePing)}
	for _, cut := range []int{1, 4} {
		if _, _, err := ReadFrameBuffer(bytes.NewReader(hdr[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("header cut at %d bytes: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// BenchmarkFrameCodec encodes and decodes one Query, one ResultHeader and
// one ResultDone per iteration: the frames every query costs besides its
// row batches.
func BenchmarkFrameCodec(b *testing.B) {
	q := &Query{ID: 7, Engine: Auto, SQL: "select sum(volume), h01 from fact, dim0 group by h01", TraceID: "3f9ac2d1-00000017"}
	hd := &ResultHeader{ID: 7, Plan: "array-select-consolidate", Engine: Array, GroupAttrs: []string{"h01"}, Aggs: []uint8{0}}
	dn := &ResultDone{ID: 7, ElapsedNS: 184000, Rows: 40, QueryID: "3f9ac2d1-00000017"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Decode(Encode(q), &Query{}); err != nil {
			b.Fatal(err)
		}
		if err := Decode(Encode(hd), &ResultHeader{}); err != nil {
			b.Fatal(err)
		}
		if err := Decode(Encode(dn), &ResultDone{}); err != nil {
			b.Fatal(err)
		}
	}
}
