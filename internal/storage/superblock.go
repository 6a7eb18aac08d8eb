package storage

import (
	"bytes"
	"fmt"
)

// The superblock is page 0 of the volume. It holds a small directory of
// named roots: page ids or blob refs for the catalog and for each
// persistent object the engine creates at a fixed name.
//
// Layout:
//
//	[0:4)   magic "OLAP"
//	[4:8)   format version
//	[8:12)  number of root entries
//	[12:)   entries: 32-byte zero-padded name + 8-byte value
const (
	superMagic      = "OLAP"
	superVersion    = 2 // v2: a blob is one extent (v1 chained directory pages)
	superCountOff   = 8
	superEntriesOff = 12
	superNameLen    = 32
	superEntrySize  = superNameLen + 8
	superMaxEntries = (PageSize - superEntriesOff) / superEntrySize
)

// Superblock provides access to the root directory on page 0.
type Superblock struct {
	bp *BufferPool
}

// OpenSuperblock validates (or, on an empty volume, initializes) page 0
// and returns an accessor.
func OpenSuperblock(bp *BufferPool) (*Superblock, error) {
	if bp.Disk().NumPages() == 0 {
		id, buf, err := bp.NewPage()
		if err != nil {
			return nil, err
		}
		if id != HeaderPageID {
			bp.Unpin(id, false)
			return nil, fmt.Errorf("storage: superblock allocated at %v, want page 0", id)
		}
		copy(buf[0:4], superMagic)
		PutUint32(buf, 4, superVersion)
		PutUint32(buf, superCountOff, 0)
		if err := bp.Unpin(id, true); err != nil {
			return nil, err
		}
		return &Superblock{bp: bp}, nil
	}
	buf, err := bp.FetchPage(HeaderPageID)
	if err != nil {
		return nil, err
	}
	magic, version := string(buf[0:4]), GetUint32(buf, 4)
	if err := bp.Unpin(HeaderPageID, false); err != nil {
		return nil, err
	}
	if magic != superMagic || version != superVersion {
		return nil, fmt.Errorf("storage: volume format %q v%d (this build reads %q v%d)",
			magic, version, superMagic, superVersion)
	}
	return &Superblock{bp: bp}, nil
}

// GetRoot looks up a named root. The boolean reports presence.
func (s *Superblock) GetRoot(name string) (uint64, bool, error) {
	if len(name) > superNameLen {
		return 0, false, fmt.Errorf("storage: root name %q too long", name)
	}
	buf, err := s.bp.FetchPage(HeaderPageID)
	if err != nil {
		return 0, false, err
	}
	defer s.bp.Unpin(HeaderPageID, false)
	count := int(GetUint32(buf, superCountOff))
	for i := 0; i < count; i++ {
		off := superEntriesOff + i*superEntrySize
		if rootName(buf[off:off+superNameLen]) == name {
			return GetUint64(buf, off+superNameLen), true, nil
		}
	}
	return 0, false, nil
}

// SetRoot creates or updates a named root.
func (s *Superblock) SetRoot(name string, value uint64) error {
	if len(name) > superNameLen {
		return fmt.Errorf("storage: root name %q too long", name)
	}
	buf, err := s.bp.FetchPageForWrite(HeaderPageID)
	if err != nil {
		return err
	}
	count := int(GetUint32(buf, superCountOff))
	for i := 0; i < count; i++ {
		off := superEntriesOff + i*superEntrySize
		if rootName(buf[off:off+superNameLen]) == name {
			PutUint64(buf, off+superNameLen, value)
			return s.bp.Unpin(HeaderPageID, true)
		}
	}
	if count >= superMaxEntries {
		s.bp.Unpin(HeaderPageID, false)
		return fmt.Errorf("storage: superblock root directory full (%d entries)", count)
	}
	off := superEntriesOff + count*superEntrySize
	for i := 0; i < superNameLen; i++ {
		buf[off+i] = 0
	}
	copy(buf[off:off+superNameLen], name)
	PutUint64(buf, off+superNameLen, value)
	PutUint32(buf, superCountOff, uint32(count+1))
	return s.bp.Unpin(HeaderPageID, true)
}

// Roots lists all root names in insertion order.
func (s *Superblock) Roots() ([]string, error) {
	buf, err := s.bp.FetchPage(HeaderPageID)
	if err != nil {
		return nil, err
	}
	defer s.bp.Unpin(HeaderPageID, false)
	count := int(GetUint32(buf, superCountOff))
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		off := superEntriesOff + i*superEntrySize
		names = append(names, rootName(buf[off:off+superNameLen]))
	}
	return names, nil
}

func rootName(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}
