package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Records is an append-only file of self-delimiting records, the one
// framing both logs share:
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// A scan stops cleanly at the first short or corrupt record — a crash
// mid-append — so every record synced before it is intact. Records is
// not safe for concurrent use; its owner serializes calls.
//
// A failed write, flush or sync fails the file: it may now end in a torn
// record, behind which anything appended later would be cut by the next
// open's scan. Every later Append, Flush, Sync, Reset and Rewrite
// returns the first error until the file is reopened.
type Records struct {
	path string
	f    *os.File
	w    *bufio.Writer
	size int64 // logical end, buffered records included
	err  error
}

const frameHeaderSize = 8

// recordsBufSize buffers appends between flushes: several page images
// per write system call, and little resident memory for the delta log.
const recordsBufSize = 64 << 10

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenRecords opens (creating if needed) the record file at path, calls
// fn with the payload of every intact record in order, and truncates the
// torn tail after them; appends go after the last intact record. A
// payload aliases a scan buffer and is valid only during its call; an
// error from fn aborts the open.
func OpenRecords(path string, fn func(payload []byte) error) (*Records, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	end, err := ScanRecords(path, fn)
	if err == nil {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Records{path: path, f: f, w: bufio.NewWriterSize(f, recordsBufSize), size: end}, nil
}

// ScanRecords calls fn with the payload of every intact record of the
// file at path, read-only, as OpenRecords does, and returns the length
// of the intact prefix.
func ScanRecords(path string, fn func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return scanFrames(bufio.NewReaderSize(f, recordsBufSize), st.Size(), fn)
}

// scanFrames reads records from r, which holds size bytes, and returns
// the end of the intact prefix. A length larger than the bytes left is a
// torn tail, caught before the payload buffer grows to it.
func scanFrames(r io.Reader, size int64, fn func([]byte) error) (int64, error) {
	var hdr [frameHeaderSize]byte
	var buf []byte
	var off int64
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n > size-off-frameHeaderSize {
			return off, nil
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, nil
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, nil
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeaderSize + n
	}
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// fail records the first failure; the file takes no more records.
func (r *Records) fail(err error) error {
	if err != nil && r.err == nil {
		r.err = err
	}
	return err
}

// Append buffers one record. It reaches the operating system at the next
// Flush and stable storage at the next Sync.
func (r *Records) Append(payload []byte) error {
	if r.err != nil {
		return r.err
	}
	if err := writeFrame(r.w, payload); err != nil {
		return r.fail(err)
	}
	r.size += frameHeaderSize + int64(len(payload))
	return nil
}

// Flush hands the buffered records to the operating system, which keeps
// them across a process crash.
func (r *Records) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.fail(r.w.Flush())
}

// Sync flushes and forces every record appended so far to stable storage.
func (r *Records) Sync() error {
	if err := r.Flush(); err != nil {
		return err
	}
	return r.fail(r.f.Sync())
}

// Reset empties the file in place, buffered records included, and
// forces the empty file to stable storage.
func (r *Records) Reset() error {
	if r.err != nil {
		return r.err
	}
	r.w.Reset(r.f)
	r.size = 0
	if err := r.f.Truncate(0); err != nil {
		return r.fail(err)
	}
	return r.fail(r.f.Sync())
}

// Rewrite replaces the file's records with payloads, atomically: they
// are written and synced to a temporary file, which is renamed over the
// file and whose directory entry is synced before Rewrite returns. A
// crash leaves the old records or the new ones, never a mix. The
// temporary file's handle becomes the one appended to; a failure before
// the rename leaves the old file in place and working, one after it
// fails the file.
func (r *Records) Rewrite(payloads [][]byte) error {
	if err := r.Flush(); err != nil {
		return err
	}
	tmp := r.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	r.w.Reset(f)
	var size int64
	for _, p := range payloads {
		if err = writeFrame(r.w, p); err != nil {
			break
		}
		size += frameHeaderSize + int64(len(p))
	}
	if err == nil {
		err = r.w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, r.path)
	}
	if err != nil {
		r.w.Reset(r.f)
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The old handle names an unlinked file; nothing is read from it.
	r.f.Close()
	r.f, r.size = f, size
	d, err := os.Open(filepath.Dir(r.path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return r.fail(err)
}

// Size reports the file's length in bytes, buffered records included.
func (r *Records) Size() int64 { return r.size }

// Close flushes what a healthy file buffered and closes it; every later
// call returns ErrClosed, and a second Close nil.
func (r *Records) Close() error {
	if r.err == ErrClosed {
		return nil
	}
	var err error
	if r.err == nil {
		err = r.w.Flush()
	}
	r.err = ErrClosed
	return errors.Join(err, r.f.Close())
}
