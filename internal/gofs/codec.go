// Package gofs is the storage layer of the reproduction, modelled on
// GoFFish's GoFS distributed file system: time-series graph datasets are
// laid out on disk as slice files, each packing a run of consecutive
// timesteps (temporal packing, default 10) for a group of up to `bin`
// subgraphs of one partition (subgraph binning, default 5). Packing gives
// the incremental loader temporal locality — an entire pack is materialized
// when its first timestep is touched, producing the every-10th-timestep
// load spike visible in the paper's Fig 6.
package gofs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"tsgraph/internal/graph"
)

// Magic and version identify the on-disk format.
const (
	sliceMagic    = 0x476F4653 // "GoFS"
	templateMagic = 0x476F4754 // "GoGT"
	manifestMagic = 0x476F464D // "GoFM"
	formatVersion = 1
	// formatVersionDelta marks slice and manifest files of delta-encoded
	// datasets (Options.SnapshotEvery > 0): periodic full snapshots with
	// sparse per-timestep deltas chained between them. Readers accept both
	// versions; writers emit version 1 unless a snapshot interval is set, so
	// existing full-format datasets are untouched byte for byte.
	formatVersionDelta = 2
)

// Per-timestep record kinds inside a version-2 slice file.
const (
	recSnapshot = 0 // full column values for the bin
	recDelta    = 1 // values only at the changed indices, patched over t-1
)

// maxStringLen bounds any single encoded string; guards against corrupt
// length prefixes allocating unbounded memory.
const maxStringLen = 1 << 24

// maxListLen bounds encoded slice lengths for the same reason.
const maxListLen = 1 << 31

// writer wraps a bufio.Writer with a running CRC and sticky error.
type writer struct {
	w   *bufio.Writer
	crc uint32
	err error
	n   int64
}

func newWriter(w io.Writer) *writer {
	return &writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.n += int64(len(p))
}

func (w *writer) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.write(buf[:])
}

func (w *writer) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.write(buf[:])
}

func (w *writer) i32(v int32)    { w.u32(uint32(v)) }
func (w *writer) i64(v int64)    { w.u64(uint64(v)) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *writer) byteVal(v byte) { w.write([]byte{v}) }
func (w *writer) boolVal(v bool) {
	if v {
		w.byteVal(1)
	} else {
		w.byteVal(0)
	}
}

func (w *writer) str(s string) {
	if len(s) > maxStringLen {
		w.err = fmt.Errorf("gofs: string of %d bytes exceeds format limit", len(s))
		return
	}
	w.u32(uint32(len(s)))
	w.write([]byte(s))
}

func (w *writer) i32s(vs []int32) {
	w.u64(uint64(len(vs)))
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		w.write(buf[:])
	}
}

func (w *writer) i64s(vs []int64) {
	w.u64(uint64(len(vs)))
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		w.write(buf[:])
	}
}

// finish writes the trailing CRC (not itself checksummed) and flushes.
func (w *writer) finish() error {
	if w.err != nil {
		return w.err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w.crc)
	if _, err := w.w.Write(buf[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// reader decodes a file's bytes already held in memory: a cursor over the
// buffer with a sticky error. Every read is bounds-checked against the
// bytes left before anything is allocated, so a corrupt length prefix
// fails instead of allocating what it claims; verifyCRC checksums the
// consumed bytes in one pass.
type reader struct {
	buf []byte
	off int
	err error
}

func newReader(buf []byte) *reader {
	return &reader{buf: buf}
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

// take consumes the next n bytes, returning a view into the buffer (nil
// on error). Running short fails with io.EOF when nothing is left and
// io.ErrUnexpectedEOF otherwise, as io.ReadFull would.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		if r.remaining() == 0 {
			r.err = io.EOF
		} else {
			r.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// need fails unless n values of at least width bytes each fit in the bytes
// left — the guard every length prefix passes before its make. Callers
// have already capped n at a format limit (at most maxListLen), so n*width
// cannot overflow.
func (r *reader) need(n uint64, width int, what string) bool {
	if r.err != nil {
		return false
	}
	if left := uint64(r.remaining()); n*uint64(width) > left {
		r.fail(fmt.Errorf("gofs: %s of %d entries overruns the %d bytes left: %w", what, n, left, io.ErrUnexpectedEOF))
		return false
	}
	return true
}

func (r *reader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *reader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) byteVal() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) boolVal() bool { return r.byteVal() != 0 }

// str copies the string out of the buffer, so decoded values never pin it.
func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail(fmt.Errorf("gofs: string length %d exceeds format limit", n))
		return ""
	}
	return string(r.take(int(n)))
}

// listLen reads a list's length prefix and checks it against both the
// format limit and the bytes left for entries of the given width.
func (r *reader) listLen(width int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > maxListLen {
		r.fail(fmt.Errorf("gofs: list length %d exceeds format limit", n))
		return 0
	}
	if !r.need(n, width, "list") {
		return 0
	}
	return int(n)
}

func (r *reader) i32s() []int32 {
	n := r.listLen(4)
	p := r.take(4 * n)
	if p == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

func (r *reader) i64s() []int64 {
	n := r.listLen(8)
	p := r.take(8 * n)
	if p == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// verifyCRC checksums exactly the bytes decoded so far in one pass and
// compares the result with the trailing checksum that follows them. A
// structural error recorded during decode takes precedence.
func (r *reader) verifyCRC() error {
	if r.err != nil {
		return r.err
	}
	want := crc32.ChecksumIEEE(r.buf[:r.off])
	p := r.take(4)
	if p == nil {
		return fmt.Errorf("gofs: reading checksum: %w", r.err)
	}
	got := binary.LittleEndian.Uint32(p)
	if got != want {
		return fmt.Errorf("gofs: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return nil
}

// writeSchema serializes a schema.
func writeSchema(w *writer, s *graph.Schema) {
	w.u32(uint32(s.Len()))
	for i := 0; i < s.Len(); i++ {
		w.str(s.Name(i))
		w.byteVal(byte(s.Type(i)))
	}
}

// readSchema deserializes a schema.
func readSchema(r *reader) *graph.Schema {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > 1<<16 {
		r.fail(fmt.Errorf("gofs: schema with %d attributes exceeds limit", n))
		return nil
	}
	// Each attribute is at least a string length prefix and a type byte.
	if !r.need(uint64(n), 5, "schema") {
		return nil
	}
	names := make([]string, n)
	types := make([]graph.AttrType, n)
	for i := 0; i < n; i++ {
		names[i] = r.str()
		types[i] = graph.AttrType(r.byteVal())
	}
	if r.err != nil {
		return nil
	}
	s, err := graph.NewSchema(names, types)
	if err != nil {
		r.fail(err)
		return nil
	}
	return s
}

// writeColumnValues serializes the values of a column at the given indices.
func writeColumnValues(w *writer, c *graph.Column, indices []int32) {
	w.byteVal(byte(c.Type))
	w.u64(uint64(len(indices)))
	switch c.Type {
	case graph.TInt:
		for _, i := range indices {
			w.i64(c.Ints[i])
		}
	case graph.TFloat:
		for _, i := range indices {
			w.f64(c.Floats[i])
		}
	case graph.TString:
		for _, i := range indices {
			w.str(c.Strings[i])
		}
	case graph.TStringList:
		for _, i := range indices {
			list := c.StringLists[i]
			w.u32(uint32(len(list)))
			for _, s := range list {
				w.str(s)
			}
		}
	case graph.TBool:
		for _, i := range indices {
			w.boolVal(c.Bools[i])
		}
	default:
		w.err = fmt.Errorf("gofs: cannot encode column type %v", c.Type)
	}
}

// copyColumnValues carries the previous timestep's values forward into dst
// at the given indices, before a delta record patches the changed subset.
// String and string-list values share their backing storage with prev —
// decoded instances are read-only, so aliasing is safe and keeps the copy
// O(indices) regardless of content size (Instance.Clone deep-copies if a
// caller ever needs to mutate).
func copyColumnValues(prev, dst *graph.Column, indices []int32) {
	switch dst.Type {
	case graph.TInt:
		for _, i := range indices {
			dst.Ints[i] = prev.Ints[i]
		}
	case graph.TFloat:
		for _, i := range indices {
			dst.Floats[i] = prev.Floats[i]
		}
	case graph.TString:
		for _, i := range indices {
			dst.Strings[i] = prev.Strings[i]
		}
	case graph.TStringList:
		for _, i := range indices {
			dst.StringLists[i] = prev.StringLists[i]
		}
	case graph.TBool:
		for _, i := range indices {
			dst.Bools[i] = prev.Bools[i]
		}
	}
}

// minValueWidth is the fewest bytes one encoded value of a column type
// takes: strings and string lists are at least their length prefix.
func minValueWidth(t graph.AttrType) int {
	switch t {
	case graph.TInt, graph.TFloat:
		return 8
	case graph.TString, graph.TStringList:
		return 4
	default:
		return 1
	}
}

// readColumnValues deserializes column values into dst at the given indices.
// The on-disk type and count must match, and the count must fit in the
// bytes left. Fixed-width columns are decoded straight off one bounds-checked
// span of the buffer.
func readColumnValues(r *reader, dst *graph.Column, indices []int32) {
	typ := graph.AttrType(r.byteVal())
	count := r.u64()
	if r.err != nil {
		return
	}
	if typ != dst.Type {
		r.fail(fmt.Errorf("gofs: column type %v on disk, %v expected", typ, dst.Type))
		return
	}
	if count != uint64(len(indices)) {
		r.fail(fmt.Errorf("gofs: column has %d values, expected %d", count, len(indices)))
		return
	}
	if !r.need(count, minValueWidth(typ), "column") {
		return
	}
	switch dst.Type {
	case graph.TInt:
		p := r.take(8 * len(indices))
		for k, i := range indices {
			dst.Ints[i] = int64(binary.LittleEndian.Uint64(p[8*k:]))
		}
	case graph.TFloat:
		p := r.take(8 * len(indices))
		for k, i := range indices {
			dst.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*k:]))
		}
	case graph.TString:
		for _, i := range indices {
			dst.Strings[i] = r.str()
		}
	case graph.TStringList:
		for _, i := range indices {
			n := r.u32()
			if r.err != nil {
				return
			}
			if n > 1<<20 {
				r.fail(fmt.Errorf("gofs: string list of %d entries exceeds limit", n))
				return
			}
			if !r.need(uint64(n), 4, "string list") {
				return
			}
			var list []string
			if n > 0 {
				list = make([]string, n)
				for j := range list {
					list[j] = r.str()
				}
			}
			dst.StringLists[i] = list
		}
	case graph.TBool:
		p := r.take(len(indices))
		for k, i := range indices {
			dst.Bools[i] = p[k] != 0
		}
	default:
		r.fail(fmt.Errorf("gofs: cannot decode column type %v", dst.Type))
	}
}
