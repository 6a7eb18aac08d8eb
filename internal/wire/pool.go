package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// MaxPayload bounds one frame's payload (16 MiB). Row batches are far
// smaller; the bound exists so a corrupt or hostile length prefix cannot
// make either side allocate unbounded memory.
const MaxPayload = 16 << 20

// maxPooledBuffer bounds what Release returns to the pool; a rare huge
// frame's buffer is dropped for the GC instead of pinning MBs forever.
const maxPooledBuffer = 1 << 20

// Buffer is a pooled frame payload. Bytes is valid until Release; after
// Release the buffer must not be touched (its backing array is handed to
// the next reader).
type Buffer struct {
	b []byte
}

// Bytes returns the payload. It aliases pooled memory — decode before
// Release, and copy anything retained.
func (b *Buffer) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.b
}

// Release returns the buffer to the frame pool. Safe on nil.
func (b *Buffer) Release() {
	if b == nil {
		return
	}
	if cap(b.b) > maxPooledBuffer {
		return // let the GC take the rare oversized frame
	}
	b.b = b.b[:0]
	framePool.Put(b)
}

var framePool = sync.Pool{New: func() any { return &Buffer{b: make([]byte, 0, 4096)} }}

// getBuffer returns a pooled buffer sized to n bytes. The caller must
// have validated n against MaxPayload first: the bound is what makes a
// hostile length prefix unable to size an allocation.
func getBuffer(n int) *Buffer {
	fb := framePool.Get().(*Buffer)
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	} else {
		fb.b = fb.b[:n]
	}
	return fb
}

// growStep caps the room one step of reading a large payload asks for.
// A step asks for what the buffer already holds, up to growStep:
// doubling for small frames, and never far ahead of the bytes that have
// arrived.
const growStep = 64 << 10

// ReadFrameBuffer reads one frame into a pooled buffer, enforcing
// MaxPayload on the length prefix. The prefix is the peer's claim, not a
// size: a payload that fits the pooled buffer is read in one call, and a
// larger one grows the buffer only as its bytes arrive — by what it holds
// up to growStep, then by growStep at a time (with append's amortized
// growth beneath, so a long payload is not copied over and over). A peer
// that claims 16 MiB and sends one byte holds kilobytes, not 16 MiB. The
// caller owns the returned buffer and must Release it once the payload
// is decoded (Decode copies everything it retains, so
// release-after-decode is safe).
func ReadFrameBuffer(r io.Reader) (FrameType, *Buffer, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds %d bytes", n, MaxPayload)
	}
	fb := getBuffer(0)
	for want := int(n); len(fb.b) < want; {
		if len(fb.b) == cap(fb.b) {
			fb.b = slices.Grow(fb.b, min(want-len(fb.b), max(cap(fb.b), 1), growStep))
		}
		got, err := io.ReadFull(r, fb.b[len(fb.b):min(want, cap(fb.b))])
		fb.b = fb.b[:len(fb.b)+got]
		if err != nil {
			if err == io.EOF && len(fb.b) > 0 {
				err = io.ErrUnexpectedEOF // as one ReadFull of the payload would say
			}
			fb.Release()
			return 0, nil, err
		}
	}
	return FrameType(hdr[4]), fb, nil
}
