package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"sciview/internal/tuple"
)

func init() {
	Register(RLE{})
}

// RLE is a run-length-encoded column-major layout: for each attribute, a
// run count followed by (length, value) runs. Structured grid data
// compresses well under RLE — coordinate columns are long runs by
// construction (z and y repeat for entire planes and rows) — so chunks are
// smaller on disk and cheaper to transfer, at the price of a real
// decompression step in the extractor. This models the compressed
// application formats common for simulation output.
//
// Wire layout per column:  u32 numRuns, then numRuns × (u32 length,
// f32 value). Columns appear in schema order.
type RLE struct{}

// Name implements Extractor.
func (RLE) Name() string { return "rle" }

// Encode implements Extractor.
func (RLE) Encode(st *tuple.SubTable) ([]byte, error) {
	var out []byte
	var buf [4]byte
	for c := 0; c < st.Schema.NumAttrs(); c++ {
		col := st.Col(c)
		// First pass: count runs.
		runs := 0
		for i := 0; i < len(col); {
			j := i + 1
			for j < len(col) && col[j] == col[i] {
				j++
			}
			runs++
			i = j
		}
		binary.LittleEndian.PutUint32(buf[:], uint32(runs))
		out = append(out, buf[:]...)
		for i := 0; i < len(col); {
			j := i + 1
			for j < len(col) && col[j] == col[i] {
				j++
			}
			binary.LittleEndian.PutUint32(buf[:], uint32(j-i))
			out = append(out, buf[:]...)
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(col[i]))
			out = append(out, buf[:]...)
			i = j
		}
	}
	return out, nil
}

// rleMaxUnsizedRows caps the rows an RLE chunk may expand to when its
// descriptor carries no row count (catalog descriptors always do): a few
// bytes of runs can claim billions of rows.
const rleMaxUnsizedRows = 1 << 20

// Extract implements Extractor. Column 0 may not expand past d.Rows (or
// rleMaxUnsizedRows when unset); later columns must match column 0.
func (RLE) Extract(d *Desc, data []byte) (*tuple.SubTable, error) {
	schema := d.Schema()
	na := schema.NumAttrs()
	if na == 0 {
		return nil, fmt.Errorf("chunk: rle chunk %v has no attributes", d.ID())
	}
	cols := make([][]float32, na)
	off := 0
	rows := -1
	limit := d.Rows
	if limit <= 0 {
		limit = rleMaxUnsizedRows
	}
	for c := 0; c < na; c++ {
		if len(data) < off+4 {
			return nil, fmt.Errorf("chunk: rle chunk %v: truncated at column %d header", d.ID(), c)
		}
		runs := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		var col []float32
		if rows > 0 {
			col = make([]float32, 0, rows)
		}
		for r := 0; r < runs; r++ {
			if len(data) < off+8 {
				return nil, fmt.Errorf("chunk: rle chunk %v: truncated run %d of column %d", d.ID(), r, c)
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			value := math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:]))
			off += 8
			if length == 0 || len(col)+length > limit {
				return nil, fmt.Errorf("chunk: rle chunk %v: invalid run length %d in column %d", d.ID(), length, c)
			}
			for k := 0; k < length; k++ {
				col = append(col, value)
			}
		}
		if rows < 0 {
			rows, limit = len(col), len(col)
		} else if len(col) != rows {
			return nil, fmt.Errorf("chunk: rle chunk %v: column %d has %d rows, column 0 has %d",
				d.ID(), c, len(col), rows)
		}
		cols[c] = col
	}
	if off != len(data) {
		return nil, fmt.Errorf("chunk: rle chunk %v: %d trailing bytes", d.ID(), len(data)-off)
	}
	return tuple.FromColumns(d.ID(), schema, cols)
}
