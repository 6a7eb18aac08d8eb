package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// The volume's first two pages are its commit slots. Each names one
// commit: its sequence and the first page of the catalog blob, from
// which every committed structure is reached. A commit is a root
// switch: every page the new root reaches is written and synced first,
// then the older slot is overwritten with the next sequence and synced.
// Open takes the valid slot with the highest sequence, so a crash at
// any point leaves either the previous commit or the new one, and a
// torn slot write falls back to the other slot.
//
// Slot layout:
//
//	[0:4)   magic "OLAP"
//	[4:8)   format version
//	[8:16)  commit sequence
//	[16:24) catalog blob's first page (0: no catalog yet)
//	[24:28) CRC-32C of [0:24)
const (
	superMagic   = "OLAP"
	superVersion = 3 // v3: two commit slots (v2: a root directory on page 0, beside a page log)
	slotSeqOff   = 8
	slotRootOff  = 16
	slotSumOff   = 24

	// SlotPages is the number of commit slot pages; data pages follow.
	SlotPages = 2
)

var slotTable = crc32.MakeTable(crc32.Castagnoli)

// CommitStats count the commits made since open and the fsyncs they
// issued (one of the volume, one of the slot, per commit).
type CommitStats struct {
	Commits uint64 `json:"commits"`
	Fsyncs  uint64 `json:"fsyncs"`
}

// Superblock holds the volume's durable commit: the slot it is in, its
// sequence and its catalog root. Its owner serializes Commit.
type Superblock struct {
	bp      *BufferPool
	slot    PageID
	seq     uint64
	root    PageID
	commits atomic.Uint64
	fsyncs  atomic.Uint64
}

// OpenSuperblock reads the commit slots and takes the valid one with the
// highest sequence. On an empty volume it writes the first slot, naming
// no catalog. A volume of an older format is refused by its version.
func OpenSuperblock(bp *BufferPool) (*Superblock, error) {
	disk := bp.Disk()
	s := &Superblock{bp: bp}
	buf := make([]byte, PageSize)
	if disk.NumPages() == 0 {
		if _, err := disk.Allocate(SlotPages); err != nil {
			return nil, err
		}
		s.seq = 1
		putSlot(buf, s.seq, 0)
		if err := disk.WritePage(s.slot, buf); err != nil {
			return nil, err
		}
		return s, disk.Sync()
	}
	found := false
	for id := PageID(0); id < SlotPages; id++ {
		if err := disk.ReadPage(id, buf); err != nil {
			if errors.Is(err, ErrPageNotAllocated) {
				break
			}
			return nil, err
		}
		if id == 0 && string(buf[0:4]) == superMagic && GetUint32(buf, 4) != superVersion {
			return nil, fmt.Errorf("storage: volume format %q v%d (this build reads %q v%d)",
				superMagic, GetUint32(buf, 4), superMagic, superVersion)
		}
		if seq, root, ok := readSlot(buf); ok && (!found || seq > s.seq) {
			s.slot, s.seq, s.root, found = id, seq, root, true
		}
	}
	if !found || disk.NumPages() < SlotPages {
		return nil, fmt.Errorf("storage: no valid commit slot (volume format %q v%d expected)", superMagic, superVersion)
	}
	return s, nil
}

// putSlot encodes a commit into slot page buf.
func putSlot(buf []byte, seq uint64, root PageID) {
	clear(buf)
	copy(buf[0:4], superMagic)
	PutUint32(buf, 4, superVersion)
	PutUint64(buf, slotSeqOff, seq)
	PutUint64(buf, slotRootOff, uint64(root))
	PutUint32(buf, slotSumOff, crc32.Checksum(buf[:slotSumOff], slotTable))
}

// readSlot decodes slot page buf; ok is false unless it is a slot of
// this format whose checksum holds.
func readSlot(buf []byte) (seq uint64, root PageID, ok bool) {
	if string(buf[0:4]) != superMagic || GetUint32(buf, 4) != superVersion ||
		GetUint32(buf, slotSumOff) != crc32.Checksum(buf[:slotSumOff], slotTable) {
		return 0, 0, false
	}
	return GetUint64(buf, slotSeqOff), PageID(GetUint64(buf, slotRootOff)), true
}

// Catalog returns the first page of the committed catalog blob; ok is
// false on a volume that has none yet.
func (s *Superblock) Catalog() (PageID, bool) { return s.root, s.root != 0 }

// Commit makes root the durable catalog. It writes every dirty page and
// syncs the volume, so that all root reaches is on disk, then writes the
// older slot with the next sequence and syncs again. Until that second
// sync returns, Open finds the previous commit; after it, this one. From
// then on nothing allocated before it may be write-pinned (Writable).
func (s *Superblock) Commit(root PageID) error {
	if err := s.bp.FlushAll(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	slot := SlotPages - 1 - s.slot
	buf := make([]byte, PageSize)
	putSlot(buf, s.seq+1, root)
	if err := s.bp.disk.WritePage(slot, buf); err != nil {
		return err
	}
	s.bp.pageWrites.Add(1)
	if err := s.bp.disk.Sync(); err != nil {
		return err
	}
	s.fsyncs.Add(1)
	s.commits.Add(1)
	s.slot, s.seq, s.root = slot, s.seq+1, root
	s.bp.committed()
	return nil
}

// Stats reports the commits since open and their fsyncs.
func (s *Superblock) Stats() CommitStats {
	return CommitStats{Commits: s.commits.Load(), Fsyncs: s.fsyncs.Load()}
}
