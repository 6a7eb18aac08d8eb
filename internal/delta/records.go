package delta

// The record file under the delta store's log: an append-only file of
// checksummed, self-delimiting records whose scan stops at the first
// torn or corrupt one, so a crash mid-append loses only that record.
// The page store needs no log: a commit is a root switch
// (storage.Superblock), and nothing it reaches is written in place.

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

// Records is an append-only file of self-delimiting records:
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// A scan stops cleanly at the first short or corrupt record — a crash
// mid-append — so every record synced before it is intact. Records is
// not safe for concurrent use; its owner serializes calls.
//
// A failed write, flush or sync fails the file: it may now end in a torn
// record, behind which anything appended later would be cut by the next
// open's scan. Every later Append, Sync and Rewrite returns the first
// error until the file is reopened.
type Records struct {
	path string
	f    *os.File
	w    *bufio.Writer
	err  error
}

// errLogClosed is returned by operations on a closed file.
var errLogClosed = errors.New("delta: log closed")

const frameHeaderSize = 8

// recordsBufSize buffers appends between syncs: several batches per
// write system call, and little resident memory.
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
		return nil, fmt.Errorf("delta: open log %s: %w", path, err)
	}
	st, err := f.Stat()
	var end int64
	if err == nil {
		end, err = scanFrames(bufio.NewReaderSize(f, recordsBufSize), st.Size(), fn)
	}
	if err == nil {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("delta: open log %s: %w", path, err)
	}
	return &Records{path: path, f: f, w: bufio.NewWriterSize(f, recordsBufSize)}, nil
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

// Append buffers one record. It reaches stable storage at the next Sync.
func (r *Records) Append(payload []byte) error {
	if r.err != nil {
		return r.err
	}
	return r.fail(writeFrame(r.w, payload))
}

// flush hands the buffered records to the operating system, which keeps
// them across a process crash.
func (r *Records) flush() error {
	if r.err != nil {
		return r.err
	}
	return r.fail(r.w.Flush())
}

// Sync flushes and forces every record appended so far to stable storage.
func (r *Records) Sync() error {
	if err := r.flush(); err != nil {
		return err
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
	if err := r.flush(); err != nil {
		return err
	}
	tmp := r.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	r.w.Reset(f)
	for _, p := range payloads {
		if err = writeFrame(r.w, p); err != nil {
			break
		}
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
	r.f = f
	d, err := os.Open(filepath.Dir(r.path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return r.fail(err)
}

// Close flushes what a healthy file buffered and closes it; every later
// call returns errLogClosed, and a second Close nil.
func (r *Records) Close() error {
	if r.err == errLogClosed {
		return nil
	}
	var err error
	if r.err == nil {
		err = r.w.Flush()
	}
	r.err = errLogClosed
	return errors.Join(err, r.f.Close())
}
