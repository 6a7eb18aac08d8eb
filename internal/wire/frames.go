package wire

import (
	"encoding/binary"
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

// SubQuery is a coordinator's scatter frame: run sql on the chosen
// engine restricted to shard Shard of Shards (the server's standard
// chunk-range / extent-range split), answering with the usual result
// stream. TraceID is the originating distributed query's identity, so
// the shard's trace, slow-query log, and flight-recorder entries stitch
// to the coordinator's. Workers > 0 overrides the session's parallel
// degree for this sub-query only.
type SubQuery struct {
	ID      uint32
	Engine  Engine
	SQL     string
	TraceID string
	Shard   uint32
	Shards  uint32
	Workers uint32
}

// Cancel asks the server to abandon the identified in-flight query.
type Cancel struct {
	ID uint32
}

// SetOption flips a per-session switch by name: "CACHE" on|off,
// "PARALLEL" n, "TRACE" on|off, or "PARTIAL" on|off (case-insensitive);
// unknown names or values are answered with Error{CodeProtocol}, an
// option the backend does not have with Error{CodeUnsupported}, and the
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
// session has TRACE on, empty otherwise. Partial is empty for a
// complete answer; a coordinator answering under the PARTIAL session
// option fills it with the JSON per-shard completeness report when one
// or more shards could not be reached.
type ResultDone struct {
	ID        uint32
	ElapsedNS int64
	Rows      int64
	QueryID   string
	Trace     string
	Partial   string
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

// Err converts the frame to the *Error callers switch on.
func (f *ErrorFrame) Err() *Error { return &Error{Code: f.Code, Message: f.Message} }

// ---- payload encoding ----
//
// Payload fields are appended in declaration order: fixed-width integers
// big-endian, counts and lengths as uvarints, aggregate values as zigzag
// varints (binary.AppendVarint), strings as uvarint length + bytes.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// dec is a cursor over one frame payload; the first malformed field
// poisons it and every later read reports the same error.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed frame payload")
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
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

func (d *dec) strings() []string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) { // each string needs >= 1 byte
		d.fail()
		return nil
	}
	out := make([]string, 0, prealloc(n, len(d.b), 1))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

// done checks that the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame payload", len(d.b))
	}
	return nil
}

// ---- per-frame encode/decode ----

// Encode renders the Hello payload.
func (f *Hello) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, Magic)
	return binary.BigEndian.AppendUint16(b, f.Version)
}

// DecodeHello parses a Hello payload, validating the magic.
func DecodeHello(p []byte) (*Hello, error) {
	d := &dec{b: p}
	magic := d.u32()
	f := &Hello{Version: d.u16()}
	if err := d.done(); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("wire: bad magic 0x%08x (not an olapd client?)", magic)
	}
	return f, nil
}

// Encode renders the HelloAck payload.
func (f *HelloAck) Encode() []byte {
	b := binary.BigEndian.AppendUint16(nil, f.Version)
	return appendString(b, f.Server)
}

// DecodeHelloAck parses a HelloAck payload.
func DecodeHelloAck(p []byte) (*HelloAck, error) {
	d := &dec{b: p}
	f := &HelloAck{Version: d.u16(), Server: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

func encodeQuery(id uint32, engine Engine, sql, traceID string) []byte {
	b := binary.BigEndian.AppendUint32(nil, id)
	b = append(b, byte(engine))
	b = appendString(b, sql)
	return appendString(b, traceID)
}

func decodeQuery(p []byte) (uint32, Engine, string, string, error) {
	d := &dec{b: p}
	id := d.u32()
	engine := Engine(d.u8())
	sql := d.str()
	traceID := d.str()
	if err := d.done(); err != nil {
		return 0, 0, "", "", err
	}
	return id, engine, sql, traceID, nil
}

// Encode renders the Query payload.
func (f *Query) Encode() []byte { return encodeQuery(f.ID, f.Engine, f.SQL, f.TraceID) }

// DecodeQuery parses a Query payload.
func DecodeQuery(p []byte) (*Query, error) {
	id, engine, sql, traceID, err := decodeQuery(p)
	if err != nil {
		return nil, err
	}
	return &Query{ID: id, Engine: engine, SQL: sql, TraceID: traceID}, nil
}

// Encode renders the Explain payload.
func (f *Explain) Encode() []byte { return encodeQuery(f.ID, f.Engine, f.SQL, f.TraceID) }

// Encode renders the SubQuery payload: the Query layout followed by the
// shard window and worker override as uvarints.
func (f *SubQuery) Encode() []byte {
	b := encodeQuery(f.ID, f.Engine, f.SQL, f.TraceID)
	b = binary.AppendUvarint(b, uint64(f.Shard))
	b = binary.AppendUvarint(b, uint64(f.Shards))
	return binary.AppendUvarint(b, uint64(f.Workers))
}

// DecodeSubQuery parses a SubQuery payload.
func DecodeSubQuery(p []byte) (*SubQuery, error) {
	d := &dec{b: p}
	f := &SubQuery{
		ID:      d.u32(),
		Engine:  Engine(d.u8()),
		SQL:     d.str(),
		TraceID: d.str(),
		Shard:   uint32(d.uvarint()),
		Shards:  uint32(d.uvarint()),
		Workers: uint32(d.uvarint()),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeExplain parses an Explain payload.
func DecodeExplain(p []byte) (*Explain, error) {
	id, engine, sql, traceID, err := decodeQuery(p)
	if err != nil {
		return nil, err
	}
	return &Explain{ID: id, Engine: engine, SQL: sql, TraceID: traceID}, nil
}

// Encode renders the Cancel payload.
func (f *Cancel) Encode() []byte { return binary.BigEndian.AppendUint32(nil, f.ID) }

// DecodeCancel parses a Cancel payload.
func DecodeCancel(p []byte) (*Cancel, error) {
	d := &dec{b: p}
	f := &Cancel{ID: d.u32()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the SetOption payload.
func (f *SetOption) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = appendString(b, f.Name)
	return appendString(b, f.Value)
}

// DecodeSetOption parses a SetOption payload.
func DecodeSetOption(p []byte) (*SetOption, error) {
	d := &dec{b: p}
	f := &SetOption{ID: d.u32(), Name: d.str(), Value: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the OptionAck payload.
func (f *OptionAck) Encode() []byte { return binary.BigEndian.AppendUint32(nil, f.ID) }

// DecodeOptionAck parses an OptionAck payload.
func DecodeOptionAck(p []byte) (*OptionAck, error) {
	d := &dec{b: p}
	f := &OptionAck{ID: d.u32()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the ResultHeader payload.
func (f *ResultHeader) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = appendString(b, f.Plan)
	b = append(b, byte(f.Engine))
	b = appendStrings(b, f.GroupAttrs)
	b = binary.AppendUvarint(b, uint64(len(f.Aggs)))
	return append(b, f.Aggs...)
}

// DecodeResultHeader parses a ResultHeader payload.
func DecodeResultHeader(p []byte) (*ResultHeader, error) {
	d := &dec{b: p}
	f := &ResultHeader{
		ID:         d.u32(),
		Plan:       d.str(),
		Engine:     Engine(d.u8()),
		GroupAttrs: d.strings(),
	}
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ { // a hostile count stops at the payload's end
		f.Aggs = append(f.Aggs, d.u8())
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

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
		b = appendStrings(b, r.Groups)
		b = binary.AppendVarint(b, r.Sum)
		b = binary.AppendVarint(b, r.Count)
		b = binary.AppendVarint(b, r.Min)
		b = binary.AppendVarint(b, r.Max)
	}
	return b
}

// Encode renders the RowBatch payload.
func (f *RowBatch) Encode() []byte {
	return appendRows(binary.BigEndian.AppendUint32(nil, f.ID), f.Rows)
}

// RowImage is a result's RowBatch frames encoded ahead of the request
// that will carry them: per batch, the 4-byte big-endian length of the
// payload's part after the request ID, then that part. A server keeps
// one beside a cached result and answers every hit by writing, per
// batch, a frame header, the request's ID and the stored bytes — the
// same bytes RowBatch.Encode would have produced.
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
		d := &dec{b: body}
		batch := d.rows()
		if err := d.done(); err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// rows reads a row count and that many rows. The whole batch costs a
// fixed number of allocations: one string holding a copy of the rest of
// the payload, which every label is a substring of, and one []string
// that every row's Groups is a slice of — capped at its own length, so
// a caller appending to one row's Groups cannot write into the next's.
// Holding on to any one label therefore keeps its batch's bytes alive.
//
// This is the client's hot loop (and a coordinator's, per shard), so it
// walks the string copy by index instead of going field by field through
// the cursor.
func (d *dec) rows() []Row {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	text := string(d.b)
	rows := make([]Row, 0, prealloc(n, len(d.b), 5)) // a row is a count and four varints at least
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
		d.fail()
		return nil
	}
	d.b = d.b[at:]
	return rows
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

// DecodeRowBatch parses a RowBatch payload.
func DecodeRowBatch(p []byte) (*RowBatch, error) {
	d := &dec{b: p}
	f := &RowBatch{ID: d.u32()}
	f.Rows = d.rows()
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the ResultDone payload.
func (f *ResultDone) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = binary.AppendVarint(b, f.ElapsedNS)
	b = binary.AppendVarint(b, f.Rows)
	b = appendString(b, f.QueryID)
	b = appendString(b, f.Trace)
	return appendString(b, f.Partial)
}

// DecodeResultDone parses a ResultDone payload.
func DecodeResultDone(p []byte) (*ResultDone, error) {
	d := &dec{b: p}
	f := &ResultDone{
		ID:        d.u32(),
		ElapsedNS: d.varint(),
		Rows:      d.varint(),
		QueryID:   d.str(),
		Trace:     d.str(),
		Partial:   d.str(),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the ExplainResult payload.
func (f *ExplainResult) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = appendString(b, f.Chosen)
	b = append(b, byte(f.Engine))
	return appendString(b, f.Text)
}

// DecodeExplainResult parses an ExplainResult payload.
func DecodeExplainResult(p []byte) (*ExplainResult, error) {
	d := &dec{b: p}
	f := &ExplainResult{ID: d.u32(), Chosen: d.str(), Engine: Engine(d.u8()), Text: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the Error payload.
func (f *ErrorFrame) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(f.Code))
	b = appendString(b, f.Message)
	return appendString(b, f.QueryID)
}

// DecodeError parses an Error payload.
func DecodeError(p []byte) (*ErrorFrame, error) {
	d := &dec{b: p}
	f := &ErrorFrame{ID: d.u32(), Code: ErrorCode(d.u16()), Message: d.str(), QueryID: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the GetProfiles payload.
func (f *GetProfiles) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = appendString(b, f.QueryID)
	return binary.AppendUvarint(b, uint64(f.Limit))
}

// DecodeGetProfiles parses a GetProfiles payload.
func DecodeGetProfiles(p []byte) (*GetProfiles, error) {
	d := &dec{b: p}
	f := &GetProfiles{ID: d.u32(), QueryID: d.str(), Limit: uint32(d.uvarint())}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Encode renders the ProfilesResult payload.
func (f *ProfilesResult) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	return appendString(b, f.JSON)
}

// DecodeProfilesResult parses a ProfilesResult payload.
func DecodeProfilesResult(p []byte) (*ProfilesResult, error) {
	d := &dec{b: p}
	f := &ProfilesResult{ID: d.u32(), JSON: d.str()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
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

// Encode renders the Ingest payload.
func (f *Ingest) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = binary.AppendUvarint(b, uint64(len(f.Cells)))
	for i := range f.Cells {
		c := &f.Cells[i]
		b = binary.AppendUvarint(b, uint64(len(c.Keys)))
		for _, k := range c.Keys {
			b = binary.AppendVarint(b, k)
		}
		b = binary.AppendVarint(b, c.Value)
		if c.Delete {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeIngest parses an Ingest payload.
func DecodeIngest(p []byte) (*Ingest, error) {
	d := &dec{b: p}
	f := &Ingest{ID: d.u32()}
	n := d.uvarint()
	if d.err == nil {
		f.Cells = make([]IngestCell, 0, prealloc(n, len(d.b), 3)) // a cell is a key count, a value and a flag at least
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		nk := d.uvarint()
		if d.err != nil || nk > uint64(len(d.b))+1 {
			d.fail()
			break
		}
		c := IngestCell{Keys: make([]int64, 0, prealloc(nk, len(d.b), 1))}
		for k := uint64(0); k < nk && d.err == nil; k++ {
			c.Keys = append(c.Keys, d.varint())
		}
		c.Value = d.varint()
		c.Delete = d.u8() != 0
		f.Cells = append(f.Cells, c)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// IngestAck acknowledges an Ingest frame once the batch is durable in
// the server's delta WAL and visible to queries.
type IngestAck struct {
	ID    uint32
	Cells uint32 // cells applied
}

// Encode renders the IngestAck payload.
func (f *IngestAck) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	return binary.AppendUvarint(b, uint64(f.Cells))
}

// DecodeIngestAck parses an IngestAck payload.
func DecodeIngestAck(p []byte) (*IngestAck, error) {
	d := &dec{b: p}
	f := &IngestAck{ID: d.u32(), Cells: uint32(d.uvarint())}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// DeltaStatsReq asks for the server's delta-store counters.
type DeltaStatsReq struct {
	ID uint32
}

// Encode renders the DeltaStats payload.
func (f *DeltaStatsReq) Encode() []byte { return binary.BigEndian.AppendUint32(nil, f.ID) }

// DecodeDeltaStatsReq parses a DeltaStats payload.
func DecodeDeltaStatsReq(p []byte) (*DeltaStatsReq, error) {
	d := &dec{b: p}
	f := &DeltaStatsReq{ID: d.u32()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
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

// Encode renders the DeltaStatsResult payload.
func (f *DeltaStatsResult) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	b = binary.AppendVarint(b, f.Cells)
	b = binary.AppendVarint(b, f.Bytes)
	b = binary.AppendVarint(b, f.DirtyChunks)
	b = binary.AppendVarint(b, f.TouchedChunks)
	b = binary.AppendVarint(b, f.BudgetBytes)
	return binary.AppendVarint(b, f.Compactions)
}

// DecodeDeltaStatsResult parses a DeltaStatsResult payload.
func DecodeDeltaStatsResult(p []byte) (*DeltaStatsResult, error) {
	d := &dec{b: p}
	f := &DeltaStatsResult{
		ID:            d.u32(),
		Cells:         d.varint(),
		Bytes:         d.varint(),
		DirtyChunks:   d.varint(),
		TouchedChunks: d.varint(),
		BudgetBytes:   d.varint(),
		Compactions:   d.varint(),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// CompactReq asks the server to fold the delta overlay into the chunk
// store now (the manual trigger beside the background compactor).
type CompactReq struct {
	ID uint32
}

// Encode renders the Compact payload.
func (f *CompactReq) Encode() []byte { return binary.BigEndian.AppendUint32(nil, f.ID) }

// DecodeCompactReq parses a Compact payload.
func DecodeCompactReq(p []byte) (*CompactReq, error) {
	d := &dec{b: p}
	f := &CompactReq{ID: d.u32()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// CompactAck acknowledges a completed compaction.
type CompactAck struct {
	ID        uint32
	ElapsedNS int64
}

// Encode renders the CompactAck payload.
func (f *CompactAck) Encode() []byte {
	b := binary.BigEndian.AppendUint32(nil, f.ID)
	return binary.AppendVarint(b, f.ElapsedNS)
}

// DecodeCompactAck parses a CompactAck payload.
func DecodeCompactAck(p []byte) (*CompactAck, error) {
	d := &dec{b: p}
	f := &CompactAck{ID: d.u32(), ElapsedNS: d.varint()}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}
