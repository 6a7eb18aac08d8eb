// Package wal implements a redo-only write-ahead log with commit records
// and crash recovery.
//
// The engine pairs the log with a shadow-root commit protocol: mutating
// operations (schema creation, cube loads, index builds) construct new
// objects in freshly allocated pages and publish them by updating named
// roots in the superblock. Page images are logged before any dirty page
// reaches the volume (the write-ahead rule, enforced by the buffer pool's
// PageLogger hook), and a commit record marks each consistency point.
// Recovery replays logged page images up to the last commit record, so a
// crash mid-operation leaves the previously committed state intact — the
// uncommitted operation's pages are unreachable garbage because the root
// switch itself is part of the committed page set.
//
// The log's records are framed by Records, the record file the delta
// store's log is built on too: one framing, one torn-tail scan.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/storage"
)

// Record types.
const (
	recPageImage   = byte(1) // redo: page contents after modification
	recCommit      = byte(2)
	recBeforeImage = byte(3) // undo: page contents before first dirtying
)

// A page-log record is one Records payload:
//
//	[0:1)   record type
//	[1:9)   LSN
//	[9:17)  page id (0 for commit)
//	[17:)   page image (empty for commit)
//
// recHeaderSize counts the frame header with it: a commit record's
// length on disk.
const (
	pageRecHeader = 17
	recHeaderSize = frameHeaderSize + pageRecHeader
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is an append-only redo log backed by a single record file.
type Log struct {
	mu      sync.Mutex
	rec     *Records
	buf     []byte // one record payload, reused
	nextLSN uint64
	stats   Stats
}

// Stats counts the log's activity since Open. PageImages and
// BeforeImages are appended records (redo and undo respectively);
// Fsyncs counts forces to stable storage (commits, explicit Syncs, and
// checkpoints).
type Stats struct {
	PageImages   uint64 `json:"page_images"`
	BeforeImages uint64 `json:"before_images"`
	Commits      uint64 `json:"commits"`
	Fsyncs       uint64 `json:"fsyncs"`
}

// pageRecords adapts fn to a Records scan, decoding each payload as a
// page-log record. The image aliases the scan buffer.
func pageRecords(fn func(typ byte, lsn uint64, pid storage.PageID, img []byte) error) func([]byte) error {
	return func(p []byte) error {
		if len(p) < pageRecHeader || len(p) > pageRecHeader+storage.PageSize {
			return fmt.Errorf("wal: page-log record of %d bytes", len(p))
		}
		return fn(p[0], binary.LittleEndian.Uint64(p[1:9]), storage.PageID(binary.LittleEndian.Uint64(p[9:17])), p[pageRecHeader:])
	}
}

// Open opens (creating if needed) the log at path. An existing log is
// opened for appending after scanning it to establish the next LSN; call
// Recover first if the volume may be behind the log.
func Open(path string) (*Log, error) {
	var lastLSN uint64
	rec, err := OpenRecords(path, pageRecords(func(_ byte, lsn uint64, _ storage.PageID, _ []byte) error {
		lastLSN = lsn
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return &Log{rec: rec, buf: make([]byte, pageRecHeader+storage.PageSize), nextLSN: lastLSN + 1}, nil
}

// LogPageImage appends a page-image redo record. It implements
// storage.PageLogger so the log can be installed directly on a buffer
// pool. The buffer pool invokes it immediately before a dirty page is
// written to the volume, so the record — and every record before it,
// including the page's before-image — is flushed to the operating system
// here, preserving the write-ahead ordering for process crashes. (Power-
// loss ordering would additionally require an fsync per eviction; the
// engine trades that for bulk-load speed and fsyncs only at commit.)
func (l *Log) LogPageImage(id storage.PageID, img []byte) error {
	return l.logImage(recPageImage, id, img)
}

// LogBeforeImage appends an undo record holding the page's contents
// before its first modification since the last flush. The buffer pool
// invokes it from FetchPageForWrite on clean frames; recovery applies
// before-images logged after the last commit, in reverse, to roll back
// uncommitted in-place changes that reached the volume.
func (l *Log) LogBeforeImage(id storage.PageID, img []byte) error {
	return l.logImage(recBeforeImage, id, img)
}

func (l *Log) logImage(typ byte, id storage.PageID, img []byte) error {
	if len(img) != storage.PageSize {
		return fmt.Errorf("wal: page image of %d bytes", len(img))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(typ, uint64(id), img); err != nil {
		return err
	}
	if typ == recBeforeImage {
		l.stats.BeforeImages++
		return nil
	}
	l.stats.PageImages++
	return l.rec.Flush()
}

// AppendCommit appends a commit record and forces the log to stable
// storage. After it returns, recovery will replay every record appended
// so far.
func (l *Log) AppendCommit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(recCommit, 0, nil); err != nil {
		return err
	}
	l.stats.Commits++
	return l.syncLocked()
}

// Sync flushes buffered records to stable storage without committing.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.rec.Sync(); err != nil {
		return err
	}
	l.stats.Fsyncs++
	return nil
}

func (l *Log) appendLocked(typ byte, pid uint64, img []byte) error {
	p := l.buf[:pageRecHeader]
	p[0] = typ
	binary.LittleEndian.PutUint64(p[1:9], l.nextLSN)
	binary.LittleEndian.PutUint64(p[9:17], pid)
	if err := l.rec.Append(append(p, img...)); err != nil {
		return err
	}
	l.nextLSN++
	return nil
}

// Checkpoint truncates the log. Call only after the volume itself has
// been flushed and synced, so the log's contents are no longer needed.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rec.Reset(); err != nil {
		return err
	}
	l.stats.Fsyncs++
	return nil
}

// Size reports the current log file length in bytes (including buffered
// records).
func (l *Log) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec.Size(), nil
}

// Stats reports the log's activity counters since Open.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rec.Close()
}

// Recover restores the volume to its last committed state:
//
//  1. Redo — page-image records up to the last commit are replayed in
//     order, completing any commit whose volume flush was interrupted.
//  2. Undo — before-image records after the last commit (an interrupted
//     operation) are applied in reverse order, rolling back uncommitted
//     in-place modifications that reached the volume via evictions. The
//     earliest before-image of each page holds its committed contents,
//     and reverse application makes it the survivor.
//
// It returns the number of page images applied (redo + undo). A missing
// log file is not an error.
func Recover(path string, disk storage.DiskManager) (int, error) {
	// First pass: count the records up to and including the last commit.
	var n, committed int
	_, err := ScanRecords(path, pageRecords(func(typ byte, _ uint64, _ storage.PageID, _ []byte) error {
		n++
		if typ == recCommit {
			committed = n
		}
		return nil
	}))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: recover %s: %w", path, err)
	}

	writePage := func(pid storage.PageID, data []byte) error {
		for uint64(pid) >= disk.NumPages() {
			need := uint64(pid) - disk.NumPages() + 1
			if _, err := disk.Allocate(int(need)); err != nil {
				return err
			}
		}
		return disk.WritePage(pid, data)
	}

	// Second pass: redo committed page images; collect post-commit
	// before-images for the undo phase.
	applied := 0
	type undoRec struct {
		pid  storage.PageID
		data []byte
	}
	var undo []undoRec
	i := 0
	_, err = ScanRecords(path, pageRecords(func(typ byte, _ uint64, pid storage.PageID, img []byte) error {
		i++
		switch typ {
		case recPageImage:
			if i > committed {
				return nil // uncommitted redo: ignore
			}
			if err := writePage(pid, img); err != nil {
				return err
			}
			applied++
		case recBeforeImage:
			if i <= committed {
				return nil // superseded by the commit
			}
			undo = append(undo, undoRec{pid: pid, data: append([]byte(nil), img...)})
		}
		return nil
	}))
	if err != nil {
		return applied, err
	}

	// Undo phase, newest first.
	for i := len(undo) - 1; i >= 0; i-- {
		// Pages past the end of the volume were never flushed; their
		// in-place changes died with the buffer pool.
		if uint64(undo[i].pid) >= disk.NumPages() {
			continue
		}
		if err := disk.WritePage(undo[i].pid, undo[i].data); err != nil {
			return applied, err
		}
		applied++
	}
	if err := disk.Sync(); err != nil {
		return applied, err
	}
	return applied, nil
}
