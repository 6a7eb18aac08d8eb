// Package wire is the binary protocol olapd speaks on the wire: length-
// prefixed typed frames carrying queries from client to server and
// result sets, streamed row-batch-at-a-time, back. The format is
// deliberately small — a 5-byte header (payload length + frame type)
// followed by a payload of uvarint-framed fields — so a frame can be
// produced and parsed without reflection or an IDL, and a result set
// larger than memory can cross the wire in bounded batches.
//
// Connection lifecycle:
//
//	client                          server
//	  Hello (magic, version)  --->
//	                          <---  HelloAck (version, server banner)
//	  Query (id, engine, sql) --->
//	                          <---  ResultHeader (id, plan, attrs, aggs)
//	                          <---  RowBatch (id, rows)   [repeated]
//	                          <---  ResultDone (id, elapsed, rows)
//
// An Explain frame answers with one ExplainResult frame. Any request
// can instead be answered by an Error frame carrying a typed ErrorCode;
// Cancel (id) asks the server to abandon the identified in-flight query,
// which then answers with Error{CodeCanceled}. Ping/Pong carry no
// payload and exist for connection health checks. SetOption
// (id, name, value) flips a per-session switch — CACHE on|off,
// PARALLEL n or TRACE on|off — and is acknowledged with OptionAck (id)
// or rejected without dropping the connection: with Error{CodeProtocol}
// for an unknown name or a bad value, with Error{CodeUnsupported} for an
// option the server's backend does not have.
//
// Tracing: a Query frame carries the client-minted query ID (TraceID)
// that names the execution in the server's slow-query log, flight
// recorder, and pprof labels; ResultDone and Error echo it back, and
// with the session option TRACE on, ResultDone also carries the
// rendered span tree. GetProfiles (id, query-id, limit) reads the
// server's flight recorder — recent profiles, or one query by ID — and
// is answered with ProfilesResult (id, JSON).
//
// Both sides close the protocol version handshake before anything else;
// a version mismatch is reported with Error{CodeProtocol} and the
// connection is dropped.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version spoken by this build. The handshake
// rejects any other version — there is exactly one until a release has
// to interoperate with an older one. Version 2 added trace-context
// fields (query IDs on Query/ResultDone/Error, the TRACE option's span
// tree) and the GetProfiles/ProfilesResult pair. Version 3 added a
// cluster coordinator's frame, option and ResultDone field, and version 4
// the HTAP ingest frames: Ingest/IngestAck, DeltaStats/DeltaStatsResult,
// and Compact/CompactAck. Version 5 removed what version 3 added, which
// changed the ResultDone layout.
const Version uint16 = 5

// Magic opens every Hello frame; it lets the server reject a client
// that is not speaking this protocol at all (an HTTP request, say)
// before trusting any length field.
const Magic uint32 = 0x4F4C4150 // "OLAP"

// MaxFrameSize bounds one frame's payload (16 MiB). Row batches are
// far smaller; the bound exists so a corrupt or hostile length prefix
// cannot make either side allocate unbounded memory. MaxPayload (in
// pool.go) is the canonical name; this alias predates it.
const MaxFrameSize = 16 << 20

// DefaultBatchRows is how many result rows the server packs into one
// RowBatch frame.
const DefaultBatchRows = 256

// FrameType identifies a frame's payload.
type FrameType uint8

// Frame types. Client-to-server types sit below 0x10, server-to-client
// types at or above it.
const (
	FrameHello       FrameType = 0x01
	FrameQuery       FrameType = 0x02
	FrameExplain     FrameType = 0x03
	FrameCancel      FrameType = 0x04
	FramePing        FrameType = 0x05
	FrameSetOption   FrameType = 0x06
	FrameGetProfiles FrameType = 0x07
	FrameIngest      FrameType = 0x09 // 0x08 is unassigned: a coordinator's frame, retired in v5
	FrameDeltaStats  FrameType = 0x0A
	FrameCompact     FrameType = 0x0B

	FrameHelloAck         FrameType = 0x10
	FrameResultHeader     FrameType = 0x11
	FrameRowBatch         FrameType = 0x12
	FrameResultDone       FrameType = 0x13
	FrameExplainResult    FrameType = 0x14
	FrameError            FrameType = 0x15
	FramePong             FrameType = 0x16
	FrameOptionAck        FrameType = 0x17
	FrameProfilesResult   FrameType = 0x18
	FrameIngestAck        FrameType = 0x19
	FrameDeltaStatsResult FrameType = 0x1A
	FrameCompactAck       FrameType = 0x1B
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameQuery:
		return "query"
	case FrameExplain:
		return "explain"
	case FrameCancel:
		return "cancel"
	case FramePing:
		return "ping"
	case FrameSetOption:
		return "set-option"
	case FrameGetProfiles:
		return "get-profiles"
	case FrameIngest:
		return "ingest"
	case FrameDeltaStats:
		return "delta-stats"
	case FrameCompact:
		return "compact"
	case FrameHelloAck:
		return "hello-ack"
	case FrameResultHeader:
		return "result-header"
	case FrameRowBatch:
		return "row-batch"
	case FrameResultDone:
		return "result-done"
	case FrameExplainResult:
		return "explain-result"
	case FrameError:
		return "error"
	case FramePong:
		return "pong"
	case FrameOptionAck:
		return "option-ack"
	case FrameProfilesResult:
		return "profiles-result"
	case FrameIngestAck:
		return "ingest-ack"
	case FrameDeltaStatsResult:
		return "delta-stats-result"
	case FrameCompactAck:
		return "compact-ack"
	default:
		return fmt.Sprintf("frame(0x%02x)", uint8(t))
	}
}

// ErrorCode classifies an Error frame so clients can react without
// parsing message text.
type ErrorCode uint16

// Error codes.
const (
	// CodeProtocol: malformed frame, bad magic, or version mismatch.
	CodeProtocol ErrorCode = 1
	// CodeParse: the query failed to parse or compile.
	CodeParse ErrorCode = 2
	// CodeAdmission: the admission controller rejected the query (the
	// server is at max-concurrent-queries and the wait queue is full).
	CodeAdmission ErrorCode = 3
	// CodeCanceled: the query was canceled (client Cancel frame or
	// client disconnect) before it finished.
	CodeCanceled ErrorCode = 4
	// CodeExec: the query failed during execution.
	CodeExec ErrorCode = 5
	// CodeShutdown: the server is draining and accepts no new queries.
	CodeShutdown ErrorCode = 6
	// CodeUnsupported: the server's backend does not have the requested
	// operation (a REPL meta-command such as stats over the wire). The
	// request did nothing and the connection stays usable.
	CodeUnsupported ErrorCode = 7
)

// String implements fmt.Stringer.
func (c ErrorCode) String() string {
	switch c {
	case CodeProtocol:
		return "protocol"
	case CodeParse:
		return "parse"
	case CodeAdmission:
		return "admission-rejected"
	case CodeCanceled:
		return "canceled"
	case CodeExec:
		return "exec"
	case CodeShutdown:
		return "shutting-down"
	case CodeUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Error is the structured error a server reports for one request. It
// travels as an Error frame and is returned by the client as-is, so
// callers can switch on Code.
type Error struct {
	Code    ErrorCode
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("olapd: %s: %s", e.Code, e.Message)
}

// IsCode reports whether err is (or wraps) a wire *Error with the given
// code.
func IsCode(err error, code ErrorCode) bool {
	var we *Error
	return errors.As(err, &we) && we.Code == code
}

// RequestID reads the request ID that opens the payload of every frame
// but Hello, HelloAck, Ping and Pong, without decoding the rest: how a
// peer correlates (or refuses) a frame before paying for its body. A
// payload too short to hold one reads as 0.
func RequestID(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(payload)
}

// headerSize is the fixed frame prefix: 4-byte big-endian payload
// length plus the 1-byte frame type.
const headerSize = 5

// WriteFrame writes one frame: header then payload, assembled in a
// pooled buffer and issued as one Write call — frames stay atomic under
// a mutex-guarded writer without a second syscall, and the steady state
// allocates nothing per frame.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: %s frame payload %d exceeds %d bytes", t, len(payload), MaxPayload)
	}
	fb := getBuffer(headerSize + len(payload))
	binary.BigEndian.PutUint32(fb.b, uint32(len(payload)))
	fb.b[4] = byte(t)
	copy(fb.b[headerSize:], payload)
	_, err := w.Write(fb.b)
	fb.Release()
	return err
}

// ReadFrame reads one frame into a fresh heap slice the caller owns,
// enforcing MaxPayload before allocating from the length prefix. Hot
// paths use ReadFrameBuffer instead, which reuses pooled payloads.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds %d bytes", n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return FrameType(hdr[4]), payload, nil
}
