package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// roundTrip pushes one frame through WriteFrame/ReadFrame.
func roundTrip(t *testing.T, ft FrameType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ft, payload); err != nil {
		t.Fatalf("WriteFrame(%s): %v", ft, err)
	}
	got, p, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame(%s): %v", ft, err)
	}
	if got != ft {
		t.Fatalf("frame type = %s, want %s", got, ft)
	}
	return p
}

func TestFrameRoundTrips(t *testing.T) {
	hello := &Hello{Version: Version}
	h, err := DecodeHello(roundTrip(t, FrameHello, hello.Encode()))
	if err != nil || h.Version != Version {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}

	ack := &HelloAck{Version: Version, Server: "repro-olapd"}
	a, err := DecodeHelloAck(roundTrip(t, FrameHelloAck, ack.Encode()))
	if err != nil || *a != *ack {
		t.Fatalf("hello-ack round trip: %+v, %v", a, err)
	}

	q := &Query{ID: 7, Engine: Bitmap, SQL: "select sum(volume) from fact group by h01"}
	q2, err := DecodeQuery(roundTrip(t, FrameQuery, q.Encode()))
	if err != nil || *q2 != *q {
		t.Fatalf("query round trip: %+v, %v", q2, err)
	}

	ex := &Explain{ID: 9, Engine: Auto, SQL: "explain select sum(volume) from fact"}
	ex2, err := DecodeExplain(roundTrip(t, FrameExplain, ex.Encode()))
	if err != nil || *ex2 != *ex {
		t.Fatalf("explain round trip: %+v, %v", ex2, err)
	}

	c := &Cancel{ID: 7}
	c2, err := DecodeCancel(roundTrip(t, FrameCancel, c.Encode()))
	if err != nil || *c2 != *c {
		t.Fatalf("cancel round trip: %+v, %v", c2, err)
	}

	hd := &ResultHeader{ID: 7, Plan: "bitmap-factfile", Engine: Bitmap,
		GroupAttrs: []string{"h01", "h11"}, Aggs: []uint8{0, 1}}
	hd2, err := DecodeResultHeader(roundTrip(t, FrameResultHeader, hd.Encode()))
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
	rb2, err := DecodeRowBatch(roundTrip(t, FrameRowBatch, rb.Encode()))
	if err != nil {
		t.Fatalf("row-batch round trip: %v", err)
	}
	if len(rb2.Rows) != 2 || rb2.Rows[0].Sum != -5 || rb2.Rows[0].Groups[1] != "b" ||
		rb2.Rows[1].Max != 1<<40 {
		t.Fatalf("row-batch round trip: %+v", rb2)
	}

	dn := &ResultDone{ID: 7, ElapsedNS: 123456, Rows: 42}
	dn2, err := DecodeResultDone(roundTrip(t, FrameResultDone, dn.Encode()))
	if err != nil || *dn2 != *dn {
		t.Fatalf("result-done round trip: %+v, %v", dn2, err)
	}

	er := &ExplainResult{ID: 9, Chosen: "array-consolidate", Engine: Array, Text: "plan: ..."}
	er2, err := DecodeExplainResult(roundTrip(t, FrameExplainResult, er.Encode()))
	if err != nil || *er2 != *er {
		t.Fatalf("explain-result round trip: %+v, %v", er2, err)
	}

	ef := &ErrorFrame{ID: 7, Code: CodeAdmission, Message: "queue full"}
	ef2, err := DecodeError(roundTrip(t, FrameError, ef.Encode()))
	if err != nil || *ef2 != *ef {
		t.Fatalf("error round trip: %+v, %v", ef2, err)
	}
	if !IsCode(ef2.Err(), CodeAdmission) {
		t.Fatalf("IsCode(CodeAdmission) = false for %v", ef2.Err())
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrameSize+1)
	hdr[4] = byte(FrameQuery)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err = %v, want size error", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, (&Query{ID: 1, SQL: "select"}).Encode()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 4, len(full) - 1} {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated frame at %d bytes read without error", cut)
		}
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := DecodeHello((&Hello{Version: 99}).Encode()[1:]); err == nil {
		t.Fatal("truncated hello decoded")
	}
	bad := (&Hello{Version: Version}).Encode()
	binary.BigEndian.PutUint32(bad, 0xdeadbeef)
	if _, err := DecodeHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}
	// A row batch claiming more rows than bytes must not allocate them.
	p := binary.BigEndian.AppendUint32(nil, 1)
	p = binary.AppendUvarint(p, 1<<40)
	if _, err := DecodeRowBatch(p); err == nil {
		t.Fatal("row batch with absurd count decoded")
	}
	// Trailing bytes are a protocol error.
	q := append((&Cancel{ID: 3}).Encode(), 0x00)
	if _, err := DecodeCancel(q); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}
