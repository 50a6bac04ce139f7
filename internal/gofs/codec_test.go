package gofs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"tsgraph/internal/graph"
)

// allocDuring returns the bytes the heap allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzAllocDuring is allocDuring for fuzz targets: it reads the runtime's
// cumulative heap-allocation counter without stopping the world, which
// ReadMemStats does and which dominates a fuzz loop's cost. Small
// allocations are counted when a cached span is refilled, so the count can
// be off by a few spans; fuzz limits leave that much slack.
func fuzzAllocDuring(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// le assembles little-endian header fields: uint32 values take 4 bytes,
// uint64 values 8.
func le(fields ...any) []byte {
	var out []byte
	for _, f := range fields {
		switch v := f.(type) {
		case uint32:
			out = binary.LittleEndian.AppendUint32(out, v)
		case uint64:
			out = binary.LittleEndian.AppendUint64(out, v)
		case byte:
			out = append(out, v)
		default:
			panic("le: unsupported field type")
		}
	}
	return out
}

// TestLengthPrefixAllocationBounded: a short file whose length prefix
// claims far more entries than it holds must fail without allocating what
// the prefix claims. Each case is a valid header followed by one such
// prefix and nothing else.
func TestLengthPrefixAllocationBounded(t *testing.T) {
	const claim = 1 << 24 // entries (or bytes) claimed; none follow
	dir := t.TempDir()
	c, a := makeDataset(t, 2, 2)
	if err := WriteDataset(dir, c, a, 2, 2); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	write := func(t *testing.T, path string, data []byte) string {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scratch := t.TempDir()
	cases := []struct {
		name string
		load func(t *testing.T) error
	}{
		{"manifest partition list", func(t *testing.T) error {
			_, err := readManifestFile(write(t, filepath.Join(scratch, "m"),
				le(uint32(manifestMagic), uint32(formatVersion), uint32(2), uint64(claim))))
			return err
		}},
		{"template name", func(t *testing.T) error {
			_, err := readTemplateFile(write(t, filepath.Join(scratch, "tn"),
				le(uint32(templateMagic), uint32(formatVersion), uint32(maxStringLen))))
			return err
		}},
		{"template vertex ids", func(t *testing.T) error {
			_, err := readTemplateFile(write(t, filepath.Join(scratch, "ti"),
				le(uint32(templateMagic), uint32(formatVersion), uint32(0), uint64(claim))))
			return err
		}},
		{"slice vertex list", func(t *testing.T) error {
			write(t, slicePath(dir, 0, 0, 0),
				le(uint32(sliceMagic), uint32(formatVersion), uint32(0), uint32(0), uint32(0), uint32(2), uint64(claim)))
			_, _, err := s.ReadPack(0, nil)
			return err
		}},
		{"checkpoint payload", func(t *testing.T) error {
			write(t, CheckpointPath(scratch, 0, 0),
				le(uint32(checkpointMagic), uint32(checkpointVersion), uint32(0), uint64(0), uint64(claim)))
			_, err := ReadCheckpoint(scratch, 0, 0)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			alloc := allocDuring(func() { err = tc.load(t) })
			if err == nil {
				t.Fatal("decoded a length prefix that overruns the file")
			}
			if alloc >= 1<<20 {
				t.Fatalf("allocated %d bytes decoding a %d-entry claim from a short file (err %v)", alloc, claim, err)
			}
		})
	}
}

// TestColumnLengthPrefixBounded: column value counts and string-list entry
// counts are checked against the bytes left before any value is decoded or
// any list is allocated.
func TestColumnLengthPrefixBounded(t *testing.T) {
	cases := []struct {
		name    string
		col     graph.Column
		indices int
		data    []byte
	}{
		{"float column", graph.Column{Type: graph.TFloat, Floats: make([]float64, 1<<16)}, 1 << 16,
			le(byte(graph.TFloat), uint64(1<<16))},
		{"string column", graph.Column{Type: graph.TString, Strings: make([]string, 1<<16)}, 1 << 16,
			le(byte(graph.TString), uint64(1<<16))},
		{"string list entries", graph.Column{Type: graph.TStringList, StringLists: make([][]string, 1)}, 1,
			le(byte(graph.TStringList), uint64(1), uint32(1<<20))},
		{"string length", graph.Column{Type: graph.TString, Strings: make([]string, 1)}, 1,
			le(byte(graph.TString), uint64(1), uint32(maxStringLen))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			indices := make([]int32, tc.indices)
			r := newReader(tc.data)
			alloc := allocDuring(func() { readColumnValues(r, &tc.col, indices) })
			if !errors.Is(r.err, io.ErrUnexpectedEOF) && !errors.Is(r.err, io.EOF) {
				t.Fatalf("err = %v, want an overrun (EOF)", r.err)
			}
			if alloc >= 1<<20 {
				t.Fatalf("allocated %d bytes decoding a %d-byte column", alloc, len(tc.data))
			}
		})
	}
}

// checkDecoded enforces the properties every decode of untrusted bytes
// must have: bounded allocation, and — when it succeeds — a trailing
// checksum that matches the CRC of exactly the bytes decode consumed.
func checkDecoded(t *testing.T, data []byte, r *reader, alloc uint64, err error) {
	t.Helper()
	if limit := 16*uint64(len(data)) + 1<<20; alloc > limit {
		t.Fatalf("allocated %d bytes decoding %d input bytes (limit %d)", alloc, len(data), limit)
	}
	if err != nil {
		return
	}
	end := r.off - 4
	if end < 0 || binary.LittleEndian.Uint32(data[end:]) != crc32.ChecksumIEEE(data[:end]) {
		t.Fatalf("decoded without error but bytes [0,%d) fail their trailing checksum", end)
	}
}

// FuzzSliceDecode feeds arbitrary bytes to the slice decoder, seeded with
// real full-format (v1) and delta-encoded (v2) slice files. The decode runs
// against the store whose format version the input's header names.
func FuzzSliceDecode(f *testing.F) {
	c, a := makeDataset(f, 4, 2)
	fullDir, deltaDir := writeBoth(f, c, a, 2, 3, 2)
	stores := map[uint32]*Store{}
	for v, dir := range map[uint32]string{formatVersion: fullDir, formatVersionDelta: deltaDir} {
		s, err := Open(dir)
		if err != nil {
			f.Fatal(err)
		}
		stores[v] = s
		seed, err := os.ReadFile(slicePath(dir, 0, 0, 0))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := stores[formatVersion]
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == formatVersionDelta {
			s = stores[formatVersionDelta]
		}
		m := s.Manifest()
		instances, deltas := s.newPack(m, 0)
		r := newReader(data)
		var err error
		alloc := fuzzAllocDuring(func() {
			err = s.decodeSlice(r, "fuzz", 0, 0, 0, len(instances), instances, deltas)
		})
		checkDecoded(t, data, r, alloc, err)
	})
}

// FuzzManifestDecode feeds arbitrary bytes to the manifest decoder, seeded
// with the manifests of a full-format and a delta-encoded dataset.
func FuzzManifestDecode(f *testing.F) {
	c, a := makeDataset(f, 4, 2)
	fullDir, deltaDir := writeBoth(f, c, a, 2, 3, 2)
	for _, dir := range []string{fullDir, deltaDir} {
		seed, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReader(data)
		var err error
		alloc := fuzzAllocDuring(func() { _, err = decodeManifest(r, "fuzz") })
		checkDecoded(t, data, r, alloc, err)
	})
}
