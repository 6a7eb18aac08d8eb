package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Engine selects the evaluation strategy for a remote query. Values
// mirror the engine constants of the repro package (exec.Engine), which
// is what the server maps them onto.
type Engine uint8

// Engines.
const (
	Auto     Engine = 0
	Array    Engine = 1
	StarJoin Engine = 2
	Bitmap   Engine = 3
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case Auto:
		return "auto"
	case Array:
		return "array"
	case StarJoin:
		return "starjoin"
	case Bitmap:
		return "bitmap"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine maps an engine name to its wire value.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "auto", "":
		return Auto, nil
	case "array":
		return Array, nil
	case "starjoin":
		return StarJoin, nil
	case "bitmap":
		return Bitmap, nil
	default:
		return Auto, fmt.Errorf("wire: unknown engine %q", name)
	}
}

// Row is one result group as it crosses the wire: the group labels plus
// the full aggregate state, so any AggFunc can be read client-side.
type Row struct {
	Groups []string
	Sum    int64
	Count  int64
	Min    int64
	Max    int64
}

// Hello is the client's opening frame.
type Hello struct {
	Version uint16
}

// HelloAck is the server's handshake answer.
type HelloAck struct {
	Version uint16
	Server  string
}

// Query asks the server to run sql on the chosen engine. ID is chosen
// by the client and echoed on every response frame, so a Cancel can
// name the query it aborts — it is per-connection request correlation,
// not the query's identity. TraceID is that identity: the client-minted
// query ID the server stamps into its trace, slow-query log, flight
// recorder, and pprof labels (empty lets the server mint one).
type Query struct {
	ID      uint32
	Engine  Engine
	SQL     string
	TraceID string
}

// Explain asks for the planner's explanation (rendered server-side);
// EXPLAIN ANALYZE text also executes the query.
type Explain Query

// Cancel asks the server to abandon the identified in-flight query.
type Cancel struct {
	ID uint32
}

// SetOption flips a per-session switch by name: "CACHE" on|off,
// "PARALLEL" n or "TRACE" on|off (case-insensitive);
// unknown names or values are answered with Error{CodeProtocol}, and the
// session continues.
type SetOption struct {
	ID    uint32
	Name  string
	Value string
}

// OptionAck acknowledges a SetOption frame.
type OptionAck struct {
	ID uint32
}

// ResultHeader opens a result stream: the chosen plan and the result
// schema (group attributes and aggregate functions, as AggFunc values).
type ResultHeader struct {
	ID         uint32
	Plan       string
	Engine     Engine
	GroupAttrs []string
	Aggs       []uint8
}

// RowBatch carries one bounded batch of result rows.
type RowBatch struct {
	ID   uint32
	Rows []Row
}

// ResultDone closes a result stream with the run totals. QueryID echoes
// the query's trace identity (the client's TraceID, or the one the
// server minted); Trace carries the rendered span tree when the
// session has TRACE on, empty otherwise.
type ResultDone struct {
	ID        uint32
	ElapsedNS int64
	Rows      int64
	QueryID   string
	Trace     string
}

// ExplainResult answers an Explain frame with the rendered explanation.
type ExplainResult struct {
	ID     uint32
	Chosen string
	Engine Engine
	Text   string
}

// ErrorFrame reports a request failure with its typed code. QueryID
// carries the failed query's trace identity when the failure happened
// inside an identified execution (empty for protocol-level errors), so
// error frames join the flight recorder and log like results do.
type ErrorFrame struct {
	ID      uint32
	Code    ErrorCode
	Message string
	QueryID string
}

// GetProfiles asks the server for flight-recorder profiles: the
// QueryID's single profile when set, otherwise the Limit most recent
// (0 = the whole ring) plus the retained slowest set.
type GetProfiles struct {
	ID      uint32
	QueryID string
	Limit   uint32
}

// ProfilesResult answers GetProfiles with the profiles rendered as
// JSON — the same shape /debug/queries serves.
type ProfilesResult struct {
	ID   uint32
	JSON string
}

// IngestCell is one cell state in an Ingest frame: dimension keys plus
// the new measure, or a deletion. States are absolute, so retransmits
// (and server-side WAL replays) are idempotent.
type IngestCell struct {
	Keys   []int64
	Value  int64
	Delete bool
}

// Ingest is the HTAP write frame: apply one batch of cell states
// through the server's delta store. Answered with IngestAck, or Error
// (unknown keys, no array, backpressure timeout).
type Ingest struct {
	ID    uint32
	Cells []IngestCell
}

// IngestAck acknowledges an Ingest frame once the batch is durable in
// the server's delta WAL and visible to queries.
type IngestAck struct {
	ID    uint32
	Cells uint32 // cells applied
}

// DeltaStatsReq asks for the server's delta-store counters.
type DeltaStatsReq struct {
	ID uint32
}

// DeltaStatsResult answers DeltaStats with the store's counters.
type DeltaStatsResult struct {
	ID            uint32
	Cells         int64
	Bytes         int64
	DirtyChunks   int64
	TouchedChunks int64
	BudgetBytes   int64
	Compactions   int64
}

// CompactReq asks the server to fold the delta overlay into the chunk
// store now (the manual trigger beside the background compactor).
type CompactReq struct {
	ID uint32
}

// CompactAck acknowledges a completed compaction.
type CompactAck struct {
	ID        uint32
	ElapsedNS int64
}

// Err converts the frame to the *Error callers switch on.
func (f *ErrorFrame) Err() *Error { return &Error{Code: f.Code, Message: f.Message} }

// ---- payload encoding ----
//
// Payload fields are laid out in declaration order: fixed-width integers
// big-endian, counts and lengths as uvarints, aggregate values as zigzag
// varints (binary.AppendVarint), strings as uvarint length + bytes.
//
// Each frame states its layout once, as a fields method that walks a
// codec over its fields in order. The same walk encodes, appending each
// field to the payload, and decodes, consuming each field from it.

// Frame is a frame that carries a payload: every frame type but Ping
// and Pong.
type Frame interface {
	// fields walks the frame's fields through c and returns c after the
	// last one. The codec travels by value: through a pointer it would
	// escape to the heap on every call.
	fields(c codec) codec
}

// Encode renders f's payload. It starts with room for 64 bytes, enough
// for a typical reply frame whole.
func Encode(f Frame) []byte { return f.fields(codec{enc: true, b: make([]byte, 0, 64)}).b }

// Decode parses payload p into f. Everything f retains is copied out of
// p, so p may be released once Decode returns.
func Decode(p []byte, f Frame) error { return f.fields(codec{b: p}).done() }

// codec is one walk over a payload. Encoding, b is the payload so far;
// decoding, it is what is left to read, and the first malformed field
// poisons the walk: err is set and every later step reads nothing.
type codec struct {
	enc bool
	b   []byte
	err error
}

var errMalformed = errors.New("wire: truncated or malformed frame payload")

func (c *codec) fail() *codec {
	if c.err == nil {
		c.err = errMalformed
	}
	return c
}

// done checks that a decode consumed the payload exactly.
func (c codec) done() error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame payload", len(c.b))
	}
	return c.err
}

func (c *codec) u8(v *uint8) *codec {
	switch {
	case c.enc:
		c.b = append(c.b, *v)
	case c.err != nil || len(c.b) < 1:
		return c.fail()
	default:
		*v, c.b = c.b[0], c.b[1:]
	}
	return c
}

func (c *codec) u16(v *uint16) *codec {
	switch {
	case c.enc:
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	case c.err != nil || len(c.b) < 2:
		return c.fail()
	default:
		*v, c.b = binary.BigEndian.Uint16(c.b), c.b[2:]
	}
	return c
}

func (c *codec) u32(v *uint32) *codec {
	switch {
	case c.enc:
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	case c.err != nil || len(c.b) < 4:
		return c.fail()
	default:
		*v, c.b = binary.BigEndian.Uint32(c.b), c.b[4:]
	}
	return c
}

func (c *codec) uvarint(v *uint64) *codec {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, *v)
		return c
	}
	x, n := binary.Uvarint(c.b)
	if c.err != nil || n <= 0 {
		return c.fail()
	}
	*v, c.b = x, c.b[n:]
	return c
}

// uvarint32 is a uint32 sent as a uvarint; a decoded value keeps its low
// 32 bits.
func (c *codec) uvarint32(v *uint32) *codec {
	x := uint64(*v)
	c.uvarint(&x)
	*v = uint32(x)
	return c
}

func (c *codec) varint(v *int64) *codec {
	if c.enc {
		c.b = binary.AppendVarint(c.b, *v)
		return c
	}
	x, n := binary.Varint(c.b)
	if c.err != nil || n <= 0 {
		return c.fail()
	}
	*v, c.b = x, c.b[n:]
	return c
}

// flag is a bool sent as one byte, 1 or 0; any nonzero byte decodes as
// true.
func (c *codec) flag(v *bool) *codec {
	var x uint8
	if *v {
		x = 1
	}
	c.u8(&x)
	*v = x != 0
	return c
}

func (c *codec) str(v *string) *codec {
	if c.enc {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
		return c
	}
	var n uint64
	if c.uvarint(&n).err != nil || uint64(len(c.b)) < n {
		return c.fail()
	}
	*v, c.b = string(c.b[:n]), c.b[n:]
	return c
}

// maxPrealloc caps what a decoder allocates up front from a count it
// read off the wire, in elements; a frame that really holds more grows
// by append as its bytes prove it.
const maxPrealloc = 4096

// prealloc bounds a claimed element count by what the remaining bytes of
// the payload can hold at minBytes per element, and by maxPrealloc.
func prealloc(n uint64, remaining, minBytes int) int {
	return int(min(n, uint64(remaining/minBytes), maxPrealloc))
}

// list walks a uvarint count and then each element through elem. A
// decode refuses a count the remaining bytes cannot hold at minBytes per
// element, before it allocates anything from it. elem gets the codec by
// value: a pointer passed to a function value escapes to the heap.
func list[T any](c *codec, v *[]T, minBytes int, elem func(codec, *T) codec) *codec {
	n := uint64(len(*v))
	if c.uvarint(&n); !c.enc {
		if c.err != nil || n > uint64(len(c.b)/minBytes) {
			return c.fail()
		}
		*v = make([]T, 0, prealloc(n, len(c.b), minBytes))
	}
	for i := 0; i < int(n) && c.err == nil; i++ {
		if !c.enc {
			var zero T
			*v = append(*v, zero)
		}
		*c = elem(*c, &(*v)[i])
	}
	return c
}

// ---- the field list of every frame ----

func (f *Hello) fields(c codec) codec {
	magic := Magic
	if c.u32(&magic).u16(&f.Version); magic != Magic && c.err == nil {
		c.err = fmt.Errorf("wire: bad magic 0x%08x (not an olapd client?)", magic)
	}
	return c
}

func (f *HelloAck) fields(c codec) codec { return *c.u16(&f.Version).str(&f.Server) }

func (f *Query) fields(c codec) codec {
	return *c.u32(&f.ID).u8((*uint8)(&f.Engine)).str(&f.SQL).str(&f.TraceID)
}

func (f *Explain) fields(c codec) codec { return (*Query)(f).fields(c) }

func (f *Cancel) fields(c codec) codec { return *c.u32(&f.ID) }

func (f *SetOption) fields(c codec) codec { return *c.u32(&f.ID).str(&f.Name).str(&f.Value) }

func (f *OptionAck) fields(c codec) codec { return *c.u32(&f.ID) }

func (f *ResultHeader) fields(c codec) codec {
	c.u32(&f.ID).str(&f.Plan).u8((*uint8)(&f.Engine))
	list(&c, &f.GroupAttrs, 1, func(c codec, s *string) codec { return *c.str(s) })
	return *list(&c, &f.Aggs, 1, func(c codec, a *uint8) codec { return *c.u8(a) })
}

func (f *RowBatch) fields(c codec) codec { return *c.u32(&f.ID).rows(&f.Rows) }

func (f *ResultDone) fields(c codec) codec {
	return *c.u32(&f.ID).varint(&f.ElapsedNS).varint(&f.Rows).str(&f.QueryID).str(&f.Trace)
}

func (f *ExplainResult) fields(c codec) codec {
	return *c.u32(&f.ID).str(&f.Chosen).u8((*uint8)(&f.Engine)).str(&f.Text)
}

func (f *ErrorFrame) fields(c codec) codec {
	return *c.u32(&f.ID).u16((*uint16)(&f.Code)).str(&f.Message).str(&f.QueryID)
}

func (f *GetProfiles) fields(c codec) codec {
	return *c.u32(&f.ID).str(&f.QueryID).uvarint32(&f.Limit)
}

func (f *ProfilesResult) fields(c codec) codec { return *c.u32(&f.ID).str(&f.JSON) }

// A cell is a key count, a value and a flag: three bytes at least.
func (f *Ingest) fields(c codec) codec {
	return *list(c.u32(&f.ID), &f.Cells, 3, func(c codec, cell *IngestCell) codec {
		list(&c, &cell.Keys, 1, func(c codec, k *int64) codec { return *c.varint(k) })
		return *c.varint(&cell.Value).flag(&cell.Delete)
	})
}

func (f *IngestAck) fields(c codec) codec { return *c.u32(&f.ID).uvarint32(&f.Cells) }

func (f *DeltaStatsReq) fields(c codec) codec { return *c.u32(&f.ID) }

func (f *DeltaStatsResult) fields(c codec) codec {
	return *c.u32(&f.ID).varint(&f.Cells).varint(&f.Bytes).varint(&f.DirtyChunks).
		varint(&f.TouchedChunks).varint(&f.BudgetBytes).varint(&f.Compactions)
}

func (f *CompactReq) fields(c codec) codec { return *c.u32(&f.ID) }

func (f *CompactAck) fields(c codec) codec { return *c.u32(&f.ID).varint(&f.ElapsedNS) }

// rowLike is any row type laid out like Row, so the engine's own row
// type is encoded where it lies, without this package importing it.
type rowLike interface {
	~struct {
		Groups []string
		Sum    int64
		Count  int64
		Min    int64
		Max    int64
	}
}

// appendRows appends a RowBatch payload's part after the request ID:
// the row count and the rows.
func appendRows[R rowLike](b []byte, rows []R) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for i := range rows {
		r := Row(rows[i])
		b = binary.AppendUvarint(b, uint64(len(r.Groups)))
		for _, g := range r.Groups {
			b = binary.AppendUvarint(b, uint64(len(g)))
			b = append(b, g...)
		}
		b = binary.AppendVarint(b, r.Sum)
		b = binary.AppendVarint(b, r.Count)
		b = binary.AppendVarint(b, r.Min)
		b = binary.AppendVarint(b, r.Max)
	}
	return b
}

// RowImage is a result's RowBatch frames encoded ahead of the request
// that will carry them: per batch, the 4-byte big-endian length of the
// payload's part after the request ID, then that part. A server keeps
// one beside a cached result and answers every hit by writing, per
// batch, a frame header, the request's ID and the stored bytes — the
// same bytes Encode would have produced for the RowBatch.
type RowImage []byte

// AppendRowImage appends rows to img in batches of batchRows.
func AppendRowImage[R rowLike](img RowImage, rows []R, batchRows int) RowImage {
	for len(rows) > 0 {
		n := min(batchRows, len(rows))
		at := len(img)
		img = appendRows(append(img, 0, 0, 0, 0), rows[:n])
		binary.BigEndian.PutUint32(img[at:], uint32(len(img)-at-4))
		rows = rows[n:]
	}
	return img
}

// Next splits off the image's first batch: its payload after the request
// ID, and the rest of the image. The image must not be empty.
func (img RowImage) Next() (body []byte, rest RowImage) {
	n := 4 + binary.BigEndian.Uint32(img)
	return img[4:n:n], img[n:]
}

// Rows decodes the image back into its rows (a caller that holds a
// server session in process, such as an embedded REPL, has no socket to
// read them from).
func (img RowImage) Rows() ([]Row, error) {
	var rows []Row
	for len(img) > 0 {
		if len(img) < 4 || uint64(len(img)-4) < uint64(binary.BigEndian.Uint32(img)) {
			return nil, fmt.Errorf("wire: truncated row image")
		}
		var body []byte
		body, img = img.Next()
		var batch []Row
		c := codec{b: body}
		if err := c.rows(&batch).done(); err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// rows walks a row count and that many rows. Encoding is appendRows.
// Decoding, the whole batch costs a
// fixed number of allocations: one string holding a copy of the rest of
// the payload, which every label is a substring of, and one []string
// that every row's Groups is a slice of — capped at its own length, so
// a caller appending to one row's Groups cannot write into the next's.
// Holding on to any one label therefore keeps its batch's bytes alive.
//
// This is the client's hot loop, so it walks the string copy by index
// instead of going field by field through the codec.
func (c *codec) rows(v *[]Row) *codec {
	if c.enc {
		c.b = appendRows(c.b, *v)
		return c
	}
	var n uint64
	if c.uvarint(&n); c.err != nil {
		return c
	}
	text := string(c.b)
	rows := make([]Row, 0, prealloc(n, len(c.b), 5)) // a row is a count and four varints at least
	var groups []string
	at := 0 // the next unread byte of text; negative once a field was malformed
	for i := uint64(0); i < n && at >= 0; i++ {
		var g uint64
		if g, at = uvarintAt(text, at); at < 0 || g > uint64(len(text)-at) { // each label needs >= 1 byte
			at = -1
			break
		}
		if groups == nil {
			// Rows of one result all have the same number of labels.
			groups = make([]string, 0, prealloc(g*(n-i), len(text)-at, 1))
		}
		first := len(groups)
		for ; g > 0; g-- {
			var l uint64
			if l, at = uvarintAt(text, at); at < 0 || l > uint64(len(text)-at) {
				at = -1
				break
			}
			groups = append(groups, text[at:at+int(l)])
			at += int(l)
		}
		r := Row{Groups: groups[first:len(groups):len(groups)]}
		r.Sum, at = varintAt(text, at)
		r.Count, at = varintAt(text, at)
		r.Min, at = varintAt(text, at)
		r.Max, at = varintAt(text, at)
		rows = append(rows, r)
	}
	if at < 0 {
		return c.fail()
	}
	*v, c.b = rows, c.b[at:]
	return c
}

// uvarintAt reads a uvarint from s at offset at and returns the offset
// after it, or a negative offset when at is negative already (so a chain
// of reads needs one check at its end), the varint is cut short, or it
// overflows 64 bits.
func uvarintAt(s string, at int) (uint64, int) {
	if at < 0 {
		return 0, -1
	}
	var v uint64
	for shift := uint(0); at < len(s) && shift < 64; shift += 7 {
		b := s[at]
		at++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, -1
			}
			return v | uint64(b)<<shift, at
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, -1
}

// varintAt is uvarintAt for a zigzag-encoded signed value.
func varintAt(s string, at int) (int64, int) {
	u, at := uvarintAt(s, at)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, at
}
