// Package storage implements the paged storage substrate that the rest of
// the engine is built on: a disk manager abstraction, a fixed-size buffer
// pool with LRU replacement and pin/unpin accounting, an extent allocator
// for contiguous page runs, and a large-object (blob) store used for array
// chunks and serialized metadata.
//
// It plays the role that the SHORE storage manager played for Paradise in
// the paper: everything above it (heap files, fact files, B+-trees, bitmap
// indices, chunked arrays) sees only pages and blobs.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// PageSize is the size of every page in the database in bytes.
	PageSize = 8192

	// InvalidPageID marks the absence of a page reference.
	InvalidPageID = PageID(0xFFFFFFFFFFFFFFFF)
)

// PageID identifies a page within the database file. Pages 0 and 1 are
// the commit slots (Superblock); data pages start at SlotPages.
type PageID uint64

// String implements fmt.Stringer.
func (p PageID) String() string {
	if p == InvalidPageID {
		return "page(<invalid>)"
	}
	return fmt.Sprintf("page(%d)", uint64(p))
}

// Valid reports whether p refers to a real page.
func (p PageID) Valid() bool { return p != InvalidPageID }

var (
	// ErrPageNotAllocated is returned when a read refers past the end of
	// the database file.
	ErrPageNotAllocated = errors.New("storage: page not allocated")

	// ErrBufferPoolFull is returned when every frame in the pool is
	// pinned and a new page must be brought in.
	ErrBufferPoolFull = errors.New("storage: all buffer pool frames pinned")

	// ErrShortPage is returned when a page payload has an unexpected size.
	ErrShortPage = errors.New("storage: short page")
)

// byteOrder is the on-disk integer encoding used throughout the engine.
var byteOrder = binary.LittleEndian

// PutUint16 writes v into b at off using the engine byte order.
func PutUint16(b []byte, off int, v uint16) { byteOrder.PutUint16(b[off:off+2], v) }

// GetUint16 reads a uint16 from b at off.
func GetUint16(b []byte, off int) uint16 { return byteOrder.Uint16(b[off : off+2]) }

// PutUint32 writes v into b at off.
func PutUint32(b []byte, off int, v uint32) { byteOrder.PutUint32(b[off:off+4], v) }

// GetUint32 reads a uint32 from b at off.
func GetUint32(b []byte, off int) uint32 { return byteOrder.Uint32(b[off : off+4]) }

// PutUint64 writes v into b at off.
func PutUint64(b []byte, off int, v uint64) { byteOrder.PutUint64(b[off:off+8], v) }

// GetUint64 reads a uint64 from b at off.
func GetUint64(b []byte, off int) uint64 { return byteOrder.Uint64(b[off : off+8]) }

// PutInt64 writes v into b at off.
func PutInt64(b []byte, off int, v int64) { byteOrder.PutUint64(b[off:off+8], uint64(v)) }

// GetInt64 reads an int64 from b at off.
func GetInt64(b []byte, off int) int64 { return int64(byteOrder.Uint64(b[off : off+8])) }
