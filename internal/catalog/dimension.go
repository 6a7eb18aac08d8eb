package catalog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/heap"
	"repro/internal/storage"
)

// DimensionTable is a dimension table stored in a slotted heap file.
// Rows are (key int64, attrs []string) with attrs matching the schema's
// hierarchy attributes in order.
type DimensionTable struct {
	Schema DimensionSchema
	file   *heap.File
}

// CreateDimensionTable allocates an empty dimension table.
func CreateDimensionTable(bp *storage.BufferPool, schema DimensionSchema) (*DimensionTable, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	f, err := heap.Create(bp)
	if err != nil {
		return nil, err
	}
	return &DimensionTable{Schema: schema, file: f}, nil
}

// OpenDimensionTable opens a dimension table at the given heap root.
func OpenDimensionTable(bp *storage.BufferPool, schema DimensionSchema, root storage.PageID) *DimensionTable {
	return &DimensionTable{Schema: schema, file: heap.Open(bp, root)}
}

// Root returns the heap-file root identifying this table.
func (t *DimensionTable) Root() storage.PageID { return t.file.Root() }

// NumRows reports the number of dimension members.
func (t *DimensionTable) NumRows() (uint64, error) { return t.file.NumTuples() }

// SizeBytes reports the table's on-disk footprint.
func (t *DimensionTable) SizeBytes() (int64, error) { return t.file.SizeBytes() }

// encodeRow serializes (key, attrs).
func encodeRow(key int64, attrs []string) []byte {
	n := 8
	for _, a := range attrs {
		n += binary.MaxVarintLen64 + len(a)
	}
	out := make([]byte, 8, n)
	binary.LittleEndian.PutUint64(out, uint64(key))
	for _, a := range attrs {
		out = binary.AppendUvarint(out, uint64(len(a)))
		out = append(out, a...)
	}
	return out
}

// decodeRow parses a row for a schema with nAttrs attributes.
func decodeRow(rec []byte, nAttrs int) (int64, []string, error) {
	if len(rec) < 8 {
		return 0, nil, fmt.Errorf("catalog: dimension row of %d bytes", len(rec))
	}
	key := int64(binary.LittleEndian.Uint64(rec))
	rec = rec[8:]
	attrs := make([]string, nAttrs)
	for i := 0; i < nAttrs; i++ {
		l, sz := binary.Uvarint(rec)
		if sz <= 0 || uint64(len(rec)-sz) < l {
			return 0, nil, fmt.Errorf("catalog: corrupt dimension row attr %d", i)
		}
		rec = rec[sz:]
		attrs[i] = string(rec[:l])
		rec = rec[l:]
	}
	if len(rec) != 0 {
		return 0, nil, fmt.Errorf("catalog: %d trailing bytes in dimension row", len(rec))
	}
	return key, attrs, nil
}

// Insert appends a dimension member. Key uniqueness is the loader's
// responsibility (the data generators produce dense unique keys); the
// array build verifies it when constructing the key→index B-tree.
func (t *DimensionTable) Insert(key int64, attrs []string) error {
	if len(attrs) != len(t.Schema.Attrs) {
		return fmt.Errorf("catalog: %s row has %d attrs, want %d",
			t.Schema.Name, len(attrs), len(t.Schema.Attrs))
	}
	_, err := t.file.Insert(encodeRow(key, attrs))
	return err
}

// Scan invokes fn for every row in insertion order. The attrs slice is
// freshly allocated per row and may be retained.
func (t *DimensionTable) Scan(fn func(key int64, attrs []string) error) error {
	return t.file.Scan(func(_ heap.RID, rec []byte) error {
		key, attrs, err := decodeRow(rec, len(t.Schema.Attrs))
		if err != nil {
			return err
		}
		return fn(key, attrs)
	})
}
