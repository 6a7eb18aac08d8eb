// Package btree implements a paged B+-tree over the buffer pool, mapping
// int64 keys to uint64 values with full duplicate-key support.
//
// The OLAP Array ADT stores one B-tree per dimension to map dimension key
// values to array index values (§3.1 of the paper), and the selection
// algorithm uses B-trees on dimension attributes to retrieve the index
// lists for selected values (§4.2).
//
// Entries are ordered by the composite (key, value), which makes every
// entry unique and lets duplicate keys span node boundaries without
// special cases: looking up a key is a range scan over [(key, 0),
// (key, MaxUint64)].
package btree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/storage"
)

// nodeReads counts node (and meta) page fetches across every tree in the
// process — the work metric of B-tree probing, exported engine-wide as
// btree_node_reads_total. Package-scoped because trees are created deep
// inside the array and dimension structures where threading a registry
// through every constructor would obscure the algorithms.
var nodeReads atomic.Int64

// NodeReads reports the cumulative node page fetches.
func NodeReads() int64 { return nodeReads.Load() }

// Node page layout. Byte 0 holds the node type.
//
// Leaf:
//
//	[0:1)   type = leafNode
//	[1:3)   entry count
//	[3:11)  next leaf page id
//	[11:)   entries: key int64, value uint64 (16 bytes each)
//
// Internal:
//
//	[0:1)   type = internalNode
//	[1:3)   entry count n (the node has n+1 children)
//	[3:11)  child 0 page id
//	[11:)   entries: separator key int64, separator value uint64,
//	        child page id (24 bytes each); child i+1 holds entries
//	        >= separator i
//
// Meta page (the tree's stable identity):
//
//	[0:8)   root page id
//	[8:16)  total entry count
//	[16:24) tree height (1 = root is a leaf)
const (
	leafNode     = byte(1)
	internalNode = byte(2)

	nodeCountOff   = 1
	leafNextOff    = 3
	leafEntriesOff = 11
	leafEntrySize  = 16
	intChild0Off   = 3
	intEntriesOff  = 11
	intEntrySize   = 24

	// MaxLeafEntries and MaxInternalEntries are exported for tests that
	// want to force splits deterministically.
	MaxLeafEntries     = (storage.PageSize - leafEntriesOff) / leafEntrySize
	MaxInternalEntries = (storage.PageSize - intEntriesOff) / intEntrySize

	metaRootOff   = 0
	metaCountOff  = 8
	metaHeightOff = 16
)

// ErrStopScan stops a range scan early without error.
var ErrStopScan = errors.New("btree: stop scan")

// Tree is a B+-tree identified by its meta page.
type Tree struct {
	bp   *storage.BufferPool
	meta storage.PageID

	// branching overrides the physical fan-out for tests; 0 means use
	// the page capacity.
	branching int
}

// Create allocates an empty tree and returns it. Record Root() to reopen.
func Create(bp *storage.BufferPool) (*Tree, error) {
	rootID, rootBuf, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	rootBuf[0] = leafNode
	storage.PutUint16(rootBuf, nodeCountOff, 0)
	storage.PutUint64(rootBuf, leafNextOff, uint64(storage.InvalidPageID))
	if err := bp.Unpin(rootID, true); err != nil {
		return nil, err
	}

	metaID, metaBuf, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	storage.PutUint64(metaBuf, metaRootOff, uint64(rootID))
	storage.PutUint64(metaBuf, metaCountOff, 0)
	storage.PutUint64(metaBuf, metaHeightOff, 1)
	if err := bp.Unpin(metaID, true); err != nil {
		return nil, err
	}
	return &Tree{bp: bp, meta: metaID}, nil
}

// Open returns the tree rooted at the given meta page.
func Open(bp *storage.BufferPool, meta storage.PageID) *Tree {
	return &Tree{bp: bp, meta: meta}
}

// Root returns the meta page id identifying this tree.
func (t *Tree) Root() storage.PageID { return t.meta }

// fetchMeta pins the meta page for reading, counting the fetch.
func (t *Tree) fetchMeta() ([]byte, error) {
	nodeReads.Add(1)
	return t.bp.FetchPage(t.meta)
}

// fetchNode pins a node page for reading, counting the fetch. A node
// that claims more entries than its page holds is released with an
// error, so no reader slices past the page.
func (t *Tree) fetchNode(id storage.PageID) ([]byte, error) {
	nodeReads.Add(1)
	buf, err := t.bp.FetchPage(id)
	if err != nil {
		return nil, err
	}
	if err := checkCount(id, buf); err != nil {
		t.bp.Unpin(id, false)
		return nil, err
	}
	return buf, nil
}

// checkCount reports a node page whose entry count is more than a page
// of its type holds; any type but a leaf is bounded as an internal node.
func checkCount(id storage.PageID, buf []byte) error {
	limit := MaxInternalEntries
	if buf[0] == leafNode {
		limit = MaxLeafEntries
	}
	if n := nodeCount(buf); n > limit {
		return fmt.Errorf("btree: corrupt node %v: %d entries, its page holds %d", id, n, limit)
	}
	return nil
}

// checkPath fails a descent or leaf chain that has visited hops pages
// when the volume holds fewer: a corrupt child or next pointer made a
// cycle. It reads the volume's size only at powers of two from 64 on, so
// a sound descent never reads it, and a cycle ends within 64 pages or
// twice the volume's, whichever is more.
func (t *Tree) checkPath(hops uint64) error {
	if hops < 64 || hops&(hops-1) != 0 {
		return nil
	}
	if vol := t.bp.Disk().NumPages(); hops > vol {
		return fmt.Errorf("btree: corrupt tree %v: a path of %d pages on a %d-page volume", t.meta, hops, vol)
	}
	return nil
}

// setBranching caps the per-node entry count; test hook.
func (t *Tree) setBranching(n int) { t.branching = n }

func (t *Tree) maxLeaf() int {
	if t.branching > 0 && t.branching < MaxLeafEntries {
		return t.branching
	}
	return MaxLeafEntries
}

func (t *Tree) maxInternal() int {
	if t.branching > 0 && t.branching < MaxInternalEntries {
		return t.branching
	}
	return MaxInternalEntries
}

// Len reports the number of entries in the tree.
func (t *Tree) Len() (uint64, error) {
	buf, err := t.fetchMeta()
	if err != nil {
		return 0, err
	}
	n := storage.GetUint64(buf, metaCountOff)
	return n, t.bp.Unpin(t.meta, false)
}

// Height reports the tree height (1 when the root is a leaf).
func (t *Tree) Height() (int, error) {
	buf, err := t.fetchMeta()
	if err != nil {
		return 0, err
	}
	h := int(storage.GetUint64(buf, metaHeightOff))
	return h, t.bp.Unpin(t.meta, false)
}

// cmp orders composite entries.
func cmp(k1 int64, v1 uint64, k2 int64, v2 uint64) int {
	switch {
	case k1 < k2:
		return -1
	case k1 > k2:
		return 1
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	default:
		return 0
	}
}

// Leaf entry accessors.
func leafKey(buf []byte, i int) int64 {
	return storage.GetInt64(buf, leafEntriesOff+i*leafEntrySize)
}
func leafVal(buf []byte, i int) uint64 {
	return storage.GetUint64(buf, leafEntriesOff+i*leafEntrySize+8)
}
func setLeafEntry(buf []byte, i int, k int64, v uint64) {
	storage.PutInt64(buf, leafEntriesOff+i*leafEntrySize, k)
	storage.PutUint64(buf, leafEntriesOff+i*leafEntrySize+8, v)
}

// Internal entry accessors.
func intKey(buf []byte, i int) int64 {
	return storage.GetInt64(buf, intEntriesOff+i*intEntrySize)
}
func intVal(buf []byte, i int) uint64 {
	return storage.GetUint64(buf, intEntriesOff+i*intEntrySize+8)
}
func intChild(buf []byte, i int) storage.PageID {
	if i == 0 {
		return storage.PageID(storage.GetUint64(buf, intChild0Off))
	}
	return storage.PageID(storage.GetUint64(buf, intEntriesOff+(i-1)*intEntrySize+16))
}
func setIntEntry(buf []byte, i int, k int64, v uint64, child storage.PageID) {
	storage.PutInt64(buf, intEntriesOff+i*intEntrySize, k)
	storage.PutUint64(buf, intEntriesOff+i*intEntrySize+8, v)
	storage.PutUint64(buf, intEntriesOff+i*intEntrySize+16, uint64(child))
}

func nodeCount(buf []byte) int       { return int(storage.GetUint16(buf, nodeCountOff)) }
func setNodeCount(buf []byte, n int) { storage.PutUint16(buf, nodeCountOff, uint16(n)) }
func leafNext(buf []byte) storage.PageID {
	return storage.PageID(storage.GetUint64(buf, leafNextOff))
}

// leafLowerBound returns the first index i with entry(i) >= (k, v).
func leafLowerBound(buf []byte, k int64, v uint64) int {
	lo, hi := 0, nodeCount(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(leafKey(buf, mid), leafVal(buf, mid), k, v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intChildForInsert returns the child slot for inserting (k, v): the slot
// left of the first separator strictly greater than (k, v), so entries
// equal to a separator go right. This maintains the invariant that child
// i+1 holds entries >= separator i.
func intChildForInsert(buf []byte, k int64, v uint64) int {
	lo, hi := 0, nodeCount(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(intKey(buf, mid), intVal(buf, mid), k, v) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intChildForSeek returns the child slot for finding the leftmost entry
// >= (k, v): the slot left of the first separator >= (k, v). When exact
// duplicates of a separator straddle a split, the left sibling may hold
// copies, so seeks descend left of an equal separator; forward leaf-chain
// scans then cover the right side too.
func intChildForSeek(buf []byte, k int64, v uint64) int {
	lo, hi := 0, nodeCount(buf)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(intKey(buf, mid), intVal(buf, mid), k, v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// promotion is the result of a child split: sep is the first entry of the
// new right node, which becomes a separator in the parent.
type promotion struct {
	key   int64
	val   uint64
	right storage.PageID
}

// Insert adds the (key, value) entry. Duplicate (key, value) pairs are
// stored once per Insert call — the tree is a multiset.
func (t *Tree) Insert(key int64, value uint64) error {
	metaBuf, err := t.fetchMeta()
	if err != nil {
		return err
	}
	root := storage.PageID(storage.GetUint64(metaBuf, metaRootOff))
	count := storage.GetUint64(metaBuf, metaCountOff)
	height := storage.GetUint64(metaBuf, metaHeightOff)
	if err := t.bp.Unpin(t.meta, false); err != nil {
		return err
	}

	promo, err := t.insertInto(root, key, value)
	if err != nil {
		return err
	}

	metaBuf, err = t.bp.FetchPageForWrite(t.meta)
	if err != nil {
		return err
	}
	storage.PutUint64(metaBuf, metaCountOff, count+1)
	if promo != nil {
		// Grow a new root.
		newRootID, rootBuf, err := t.bp.NewPage()
		if err != nil {
			t.bp.Unpin(t.meta, true)
			return err
		}
		rootBuf[0] = internalNode
		setNodeCount(rootBuf, 1)
		storage.PutUint64(rootBuf, intChild0Off, uint64(root))
		setIntEntry(rootBuf, 0, promo.key, promo.val, promo.right)
		if err := t.bp.Unpin(newRootID, true); err != nil {
			t.bp.Unpin(t.meta, true)
			return err
		}
		storage.PutUint64(metaBuf, metaRootOff, uint64(newRootID))
		storage.PutUint64(metaBuf, metaHeightOff, height+1)
	}
	return t.bp.Unpin(t.meta, true)
}

// insertInto descends from node, inserting the entry; it returns a
// non-nil promotion if node split.
func (t *Tree) insertInto(node storage.PageID, key int64, value uint64) (*promotion, error) {
	buf, err := t.bp.FetchPageForWrite(node)
	if err != nil {
		return nil, err
	}
	if err := checkCount(node, buf); err != nil {
		t.bp.Unpin(node, false)
		return nil, err
	}
	if buf[0] == leafNode {
		return t.insertLeaf(node, buf, key, value)
	}

	slot := intChildForInsert(buf, key, value)
	child := intChild(buf, slot)
	if err := t.bp.Unpin(node, false); err != nil {
		return nil, err
	}
	promo, err := t.insertInto(child, key, value)
	if err != nil || promo == nil {
		return nil, err
	}

	// Insert the promoted separator into this internal node, immediately
	// right of the child that split. The slot from the descent is reused
	// rather than recomputed by value: with duplicate composites a value
	// search could land beside a different, equal separator and attach
	// promo.right to the wrong position. Trees are single-writer, so the
	// slot is still valid after the child insert returns.
	buf, err = t.bp.FetchPageForWrite(node)
	if err != nil {
		return nil, err
	}
	n := nodeCount(buf)
	if n < t.maxInternal() {
		// Shift entries right and place the separator at slot.
		copy(buf[intEntriesOff+(slot+1)*intEntrySize:intEntriesOff+(n+1)*intEntrySize],
			buf[intEntriesOff+slot*intEntrySize:intEntriesOff+n*intEntrySize])
		setIntEntry(buf, slot, promo.key, promo.val, promo.right)
		setNodeCount(buf, n+1)
		return nil, t.bp.Unpin(node, true)
	}

	// Split this internal node. Gather n+1 separators and n+2 children.
	type sep struct {
		k int64
		v uint64
		c storage.PageID
	}
	seps := make([]sep, 0, n+1)
	for i := 0; i < n; i++ {
		seps = append(seps, sep{intKey(buf, i), intVal(buf, i), intChild(buf, i+1)})
	}
	seps = append(seps, sep{})
	copy(seps[slot+1:], seps[slot:])
	seps[slot] = sep{promo.key, promo.val, promo.right}
	child0 := intChild(buf, 0)

	mid := len(seps) / 2
	upKey, upVal := seps[mid].k, seps[mid].v
	rightChild0 := seps[mid].c

	// Left node keeps seps[:mid], right node takes seps[mid+1:].
	setNodeCount(buf, mid)
	storage.PutUint64(buf, intChild0Off, uint64(child0))
	for i := 0; i < mid; i++ {
		setIntEntry(buf, i, seps[i].k, seps[i].v, seps[i].c)
	}
	if err := t.bp.Unpin(node, true); err != nil {
		return nil, err
	}

	rightID, rbuf, err := t.bp.NewPage()
	if err != nil {
		return nil, err
	}
	rbuf[0] = internalNode
	rs := seps[mid+1:]
	setNodeCount(rbuf, len(rs))
	storage.PutUint64(rbuf, intChild0Off, uint64(rightChild0))
	for i, s := range rs {
		setIntEntry(rbuf, i, s.k, s.v, s.c)
	}
	if err := t.bp.Unpin(rightID, true); err != nil {
		return nil, err
	}
	return &promotion{key: upKey, val: upVal, right: rightID}, nil
}

// insertLeaf inserts into a pinned leaf; buf is the pinned page, which is
// always unpinned before return.
func (t *Tree) insertLeaf(node storage.PageID, buf []byte, key int64, value uint64) (*promotion, error) {
	n := nodeCount(buf)
	pos := leafLowerBound(buf, key, value)
	if n < t.maxLeaf() {
		copy(buf[leafEntriesOff+(pos+1)*leafEntrySize:leafEntriesOff+(n+1)*leafEntrySize],
			buf[leafEntriesOff+pos*leafEntrySize:leafEntriesOff+n*leafEntrySize])
		setLeafEntry(buf, pos, key, value)
		setNodeCount(buf, n+1)
		return nil, t.bp.Unpin(node, true)
	}

	// Split the leaf: left keeps ceil((n+1)/2) of the n+1 entries.
	type ent struct {
		k int64
		v uint64
	}
	ents := make([]ent, 0, n+1)
	for i := 0; i < n; i++ {
		ents = append(ents, ent{leafKey(buf, i), leafVal(buf, i)})
	}
	ents = append(ents, ent{})
	copy(ents[pos+1:], ents[pos:])
	ents[pos] = ent{key, value}

	mid := (len(ents) + 1) / 2
	next := leafNext(buf)

	rightID, rbuf, err := t.bp.NewPage()
	if err != nil {
		t.bp.Unpin(node, false)
		return nil, err
	}
	rbuf[0] = leafNode
	rs := ents[mid:]
	setNodeCount(rbuf, len(rs))
	storage.PutUint64(rbuf, leafNextOff, uint64(next))
	for i, e := range rs {
		setLeafEntry(rbuf, i, e.k, e.v)
	}
	if err := t.bp.Unpin(rightID, true); err != nil {
		t.bp.Unpin(node, false)
		return nil, err
	}

	setNodeCount(buf, mid)
	for i := 0; i < mid; i++ {
		setLeafEntry(buf, i, ents[i].k, ents[i].v)
	}
	storage.PutUint64(buf, leafNextOff, uint64(rightID))
	if err := t.bp.Unpin(node, true); err != nil {
		return nil, err
	}
	return &promotion{key: rs[0].k, val: rs[0].v, right: rightID}, nil
}

// descendToLeaf returns the leaf page that would contain (k, v).
func (t *Tree) descendToLeaf(k int64, v uint64) (storage.PageID, error) {
	metaBuf, err := t.fetchMeta()
	if err != nil {
		return storage.InvalidPageID, err
	}
	node := storage.PageID(storage.GetUint64(metaBuf, metaRootOff))
	if err := t.bp.Unpin(t.meta, false); err != nil {
		return storage.InvalidPageID, err
	}
	for hops := uint64(1); ; hops++ {
		if err := t.checkPath(hops); err != nil {
			return storage.InvalidPageID, err
		}
		buf, err := t.fetchNode(node)
		if err != nil {
			return storage.InvalidPageID, err
		}
		if buf[0] == leafNode {
			if err := t.bp.Unpin(node, false); err != nil {
				return storage.InvalidPageID, err
			}
			return node, nil
		}
		child := intChild(buf, intChildForSeek(buf, k, v))
		if err := t.bp.Unpin(node, false); err != nil {
			return storage.InvalidPageID, err
		}
		node = child
	}
}

// SearchEach invokes fn for every value stored under key, in ascending
// value order.
func (t *Tree) SearchEach(key int64, fn func(value uint64) error) error {
	return t.AscendRange(key, key, func(_ int64, v uint64) error { return fn(v) })
}

// Search returns all values stored under key, in ascending order.
func (t *Tree) Search(key int64) ([]uint64, error) {
	var out []uint64
	err := t.SearchEach(key, func(v uint64) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// SearchFirst returns the smallest value under key; ok is false when the
// key is absent.
func (t *Tree) SearchFirst(key int64) (uint64, bool, error) {
	var val uint64
	found := false
	err := t.SearchEach(key, func(v uint64) error {
		val = v
		found = true
		return ErrStopScan
	})
	if err != nil && !errors.Is(err, ErrStopScan) {
		return 0, false, err
	}
	return val, found, nil
}

// findEntry locates the leftmost leaf slot holding exactly (key, value).
// The seek descent lands left of an equal separator, so the walk may need
// to follow the leaf chain forward past empty-of-target leaves.
func (t *Tree) findEntry(key int64, value uint64) (storage.PageID, int, bool, error) {
	node, err := t.descendToLeaf(key, value)
	if err != nil {
		return storage.InvalidPageID, 0, false, err
	}
	for hops := uint64(1); node.Valid(); hops++ {
		if err := t.checkPath(hops); err != nil {
			return storage.InvalidPageID, 0, false, err
		}
		buf, err := t.fetchNode(node)
		if err != nil {
			return storage.InvalidPageID, 0, false, err
		}
		n := nodeCount(buf)
		i := leafLowerBound(buf, key, value)
		if i < n {
			found := leafKey(buf, i) == key && leafVal(buf, i) == value
			if err := t.bp.Unpin(node, false); err != nil {
				return storage.InvalidPageID, 0, false, err
			}
			return node, i, found, nil
		}
		next := leafNext(buf)
		if err := t.bp.Unpin(node, false); err != nil {
			return storage.InvalidPageID, 0, false, err
		}
		node = next
	}
	return storage.InvalidPageID, 0, false, nil
}

// Contains reports whether the exact (key, value) entry is present.
func (t *Tree) Contains(key int64, value uint64) (bool, error) {
	_, _, found, err := t.findEntry(key, value)
	return found, err
}

// AscendRange invokes fn for every entry with loKey <= key <= hiKey in
// (key, value) order. Return ErrStopScan from fn to stop early.
func (t *Tree) AscendRange(loKey, hiKey int64, fn func(key int64, value uint64) error) error {
	if loKey > hiKey {
		return nil
	}
	node, err := t.descendToLeaf(loKey, 0)
	if err != nil {
		return err
	}
	for hops := uint64(1); node.Valid(); hops++ {
		if err := t.checkPath(hops); err != nil {
			return err
		}
		buf, err := t.fetchNode(node)
		if err != nil {
			return err
		}
		n := nodeCount(buf)
		i := leafLowerBound(buf, loKey, 0)
		for ; i < n; i++ {
			k := leafKey(buf, i)
			if k > hiKey {
				return t.bp.Unpin(node, false)
			}
			if err := fn(k, leafVal(buf, i)); err != nil {
				t.bp.Unpin(node, false)
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
		}
		next := leafNext(buf)
		if err := t.bp.Unpin(node, false); err != nil {
			return err
		}
		node = next
	}
	return nil
}

// Ascend invokes fn for every entry in the tree in (key, value) order.
func (t *Tree) Ascend(fn func(key int64, value uint64) error) error {
	min, max := int64(-1<<63), int64(1<<63-1)
	return t.AscendRange(min, max, fn)
}

// Delete removes one occurrence of the exact (key, value) entry. It
// reports whether an entry was removed. Nodes are not rebalanced (the
// engine's indices are bulk-built and rarely shrink), so space from
// deletions is reused only by later inserts into the same leaf.
func (t *Tree) Delete(key int64, value uint64) (bool, error) {
	leaf, i, found, err := t.findEntry(key, value)
	if err != nil || !found {
		return false, err
	}
	buf, err := t.bp.FetchPageForWrite(leaf)
	if err != nil {
		return false, err
	}
	n := nodeCount(buf)
	// Re-verify under the pin; findEntry released the page.
	if i >= n || leafKey(buf, i) != key || leafVal(buf, i) != value {
		return false, t.bp.Unpin(leaf, false)
	}
	copy(buf[leafEntriesOff+i*leafEntrySize:leafEntriesOff+(n-1)*leafEntrySize],
		buf[leafEntriesOff+(i+1)*leafEntrySize:leafEntriesOff+n*leafEntrySize])
	setNodeCount(buf, n-1)
	if err := t.bp.Unpin(leaf, true); err != nil {
		return false, err
	}
	metaBuf, err := t.bp.FetchPageForWrite(t.meta)
	if err != nil {
		return false, err
	}
	storage.PutUint64(metaBuf, metaCountOff, storage.GetUint64(metaBuf, metaCountOff)-1)
	return true, t.bp.Unpin(t.meta, true)
}

// NumPages counts the pages the tree occupies (meta + all nodes) by
// walking it; used for storage accounting, not on hot paths.
func (t *Tree) NumPages() (int64, error) {
	metaBuf, err := t.fetchMeta()
	if err != nil {
		return 0, err
	}
	root := storage.PageID(storage.GetUint64(metaBuf, metaRootOff))
	if err := t.bp.Unpin(t.meta, false); err != nil {
		return 0, err
	}
	n, err := t.countNodes(root)
	return n + 1, err
}

func (t *Tree) countNodes(node storage.PageID) (int64, error) {
	buf, err := t.fetchNode(node)
	if err != nil {
		return 0, err
	}
	if buf[0] == leafNode {
		return 1, t.bp.Unpin(node, false)
	}
	n := nodeCount(buf)
	children := make([]storage.PageID, 0, n+1)
	for i := 0; i <= n; i++ {
		children = append(children, intChild(buf, i))
	}
	if err := t.bp.Unpin(node, false); err != nil {
		return 0, err
	}
	total := int64(1)
	for _, c := range children {
		sub, err := t.countNodes(c)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

// CheckInvariants walks the whole tree verifying structural invariants:
// entry ordering within and across leaves, separator consistency, and
// meta entry count. Tests call it after randomized workloads.
func (t *Tree) CheckInvariants() error {
	metaBuf, err := t.fetchMeta()
	if err != nil {
		return err
	}
	root := storage.PageID(storage.GetUint64(metaBuf, metaRootOff))
	wantCount := storage.GetUint64(metaBuf, metaCountOff)
	if err := t.bp.Unpin(t.meta, false); err != nil {
		return err
	}
	minK, minV := int64(-1<<63), uint64(0)
	maxK, maxV := int64(1<<63-1), uint64(1<<64-1)
	if _, err := t.checkNode(root, minK, minV, true, maxK, maxV, true); err != nil {
		return err
	}
	var got uint64
	var lastK int64
	var lastV uint64
	first := true
	err = t.Ascend(func(k int64, v uint64) error {
		if !first && cmp(lastK, lastV, k, v) > 0 {
			return fmt.Errorf("btree: leaf chain out of order: (%d,%d) after (%d,%d)", k, v, lastK, lastV)
		}
		first = false
		lastK, lastV = k, v
		got++
		return nil
	})
	if err != nil {
		return err
	}
	if got != wantCount {
		return fmt.Errorf("btree: meta count %d but %d entries reachable", wantCount, got)
	}
	return nil
}

// checkNode verifies that all entries in the subtree fall inside the
// bound [lo, hi) — hi inclusive only on the rightmost path (hiInc).
// Returns the subtree height.
func (t *Tree) checkNode(node storage.PageID, loK int64, loV uint64, loInc bool, hiK int64, hiV uint64, hiInc bool) (int, error) {
	buf, err := t.fetchNode(node)
	if err != nil {
		return 0, err
	}
	typ := buf[0]
	n := nodeCount(buf)
	if typ == leafNode {
		for i := 0; i < n; i++ {
			k, v := leafKey(buf, i), leafVal(buf, i)
			if i > 0 && cmp(leafKey(buf, i-1), leafVal(buf, i-1), k, v) > 0 {
				t.bp.Unpin(node, false)
				return 0, fmt.Errorf("btree: leaf %v out of order at %d", node, i)
			}
			if c := cmp(k, v, loK, loV); c < 0 || (c == 0 && !loInc) {
				t.bp.Unpin(node, false)
				return 0, fmt.Errorf("btree: leaf %v entry (%d,%d) below bound (%d,%d)", node, k, v, loK, loV)
			}
			if c := cmp(k, v, hiK, hiV); c > 0 || (c == 0 && !hiInc) {
				t.bp.Unpin(node, false)
				return 0, fmt.Errorf("btree: leaf %v entry (%d,%d) above bound (%d,%d)", node, k, v, hiK, hiV)
			}
		}
		return 1, t.bp.Unpin(node, false)
	}
	type sep struct {
		k int64
		v uint64
		c storage.PageID
	}
	seps := make([]sep, n)
	for i := 0; i < n; i++ {
		seps[i] = sep{intKey(buf, i), intVal(buf, i), intChild(buf, i+1)}
	}
	child0 := intChild(buf, 0)
	if err := t.bp.Unpin(node, false); err != nil {
		return 0, err
	}
	height := -1
	checkChild := func(c storage.PageID, lk int64, lv uint64, linc bool, hk int64, hv uint64, hinc bool) error {
		h, err := t.checkNode(c, lk, lv, linc, hk, hv, hinc)
		if err != nil {
			return err
		}
		if height == -1 {
			height = h
		} else if height != h {
			return fmt.Errorf("btree: uneven child heights under %v", node)
		}
		return nil
	}
	for i := 0; i <= n; i++ {
		lk, lv, linc := loK, loV, loInc
		hk, hv, hinc := hiK, hiV, hiInc
		if i > 0 {
			lk, lv, linc = seps[i-1].k, seps[i-1].v, true
		}
		if i < n {
			// Exact duplicates straddling a split leave copies equal to
			// the separator in the left child, so the upper bound stays
			// inclusive.
			hk, hv, hinc = seps[i].k, seps[i].v, true
		}
		c := child0
		if i > 0 {
			c = seps[i-1].c
		}
		if err := checkChild(c, lk, lv, linc, hk, hv, hinc); err != nil {
			return 0, err
		}
	}
	return height + 1, nil
}
