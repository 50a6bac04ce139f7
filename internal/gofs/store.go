package gofs

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tsgraph/internal/graph"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// Default packing parameters, matching the experimental setup in §IV-A
// ("temporal packing of 10 and subgraph binning of 5").
const (
	DefaultPack = 10
	DefaultBin  = 5
)

// Dataset file names within a dataset directory.
const (
	templateFile = "template.gofs"
	manifestFile = "manifest.gofs"
	sliceDir     = "slices"
)

// Manifest describes a stored dataset: the partition assignment, the time
// axis, and the packing parameters.
type Manifest struct {
	K         int
	Parts     []int32
	T0        int64
	Delta     int64
	Timesteps int
	Pack      int
	Bin       int
	// Compress marks gzip-compressed slice payloads.
	Compress bool
	// BinsPerPartition[p] is the number of slice bins partition p was
	// split into.
	BinsPerPartition []int32
	// SnapshotEvery > 0 marks a delta-encoded dataset (format version 2):
	// timesteps divisible by it (or by Pack — packs stay self-contained) are
	// stored as full snapshots, the rest as deltas against the previous
	// timestep. 0 is the classic full-instance layout.
	SnapshotEvery int
}

// snapshotStep reports whether timestep s of a delta-encoded dataset is
// stored as a full snapshot rather than a delta. Pack starts are always
// snapshots so every slice file can be decoded on its own.
func (m *Manifest) snapshotStep(s int) bool {
	if m.SnapshotEvery <= 0 {
		return true
	}
	return s%m.Pack == 0 || s%m.SnapshotEvery == 0
}

// packStepKinds counts how many timesteps of the pack starting at ps are
// stored as snapshots vs. deltas.
func (m *Manifest) packStepKinds(ps, packLen int) (snapshots, deltas int) {
	for s := ps; s < ps+packLen; s++ {
		if m.snapshotStep(s) {
			snapshots++
		} else {
			deltas++
		}
	}
	return snapshots, deltas
}

// WriteDataset persists a collection, partitioned by the assignment, as a
// GoFS dataset: a template file, a manifest, and one slice file per
// (partition, subgraph bin, temporal pack).
func WriteDataset(dir string, c *graph.Collection, a *partition.Assignment, pack, bin int) error {
	return WriteDatasetOptions(dir, c, a, Options{Pack: pack, Bin: bin})
}

// Options extends WriteDataset with storage options.
type Options struct {
	// Pack is the temporal packing factor (0 = DefaultPack).
	Pack int
	// Bin is the subgraph binning factor (0 = DefaultBin).
	Bin int
	// Compress gzip-compresses slice payloads — the storage optimization
	// the paper's related-work section borrows from time-evolving graph
	// systems ("enables storing compressed graphs"). Tweet-style sparse
	// columns compress well; dense random floats do not.
	Compress bool
	// SnapshotEvery, when > 0, delta-encodes the dataset: full snapshots at
	// that interval (and at every pack start), sparse deltas in between —
	// DeltaGraph-style snapshot chains. Low-churn collections shrink by the
	// churn factor; 0 keeps the byte-identical full-instance layout.
	SnapshotEvery int
}

// WriteDatasetOptions is WriteDataset with explicit Options.
func WriteDatasetOptions(dir string, c *graph.Collection, a *partition.Assignment, o Options) error {
	pack, bin := o.Pack, o.Bin
	if pack <= 0 {
		pack = DefaultPack
	}
	if bin <= 0 {
		bin = DefaultBin
	}
	t := c.Template
	if err := a.Validate(t); err != nil {
		return err
	}
	parts, err := subgraph.Build(t, a)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, sliceDir), 0o755); err != nil {
		return err
	}
	if err := writeTemplateFile(filepath.Join(dir, templateFile), t); err != nil {
		return err
	}
	var plan *deltaPlan
	if o.SnapshotEvery > 0 {
		plan = newDeltaPlan(c, o.SnapshotEvery)
	}

	// Bin layout: consecutive subgraphs of each partition grouped ≤bin at a
	// time; each bin's vertex list is the concatenation of its subgraphs'
	// template vertex indices, and its edge list is the template slots of
	// all out-edges of those vertices.
	binsPer := make([]int32, a.K)
	for p, pd := range parts {
		nBins := (len(pd.Subgraphs) + bin - 1) / bin
		if nBins == 0 {
			nBins = 1 // empty partition still gets one (empty) bin
		}
		binsPer[p] = int32(nBins)
		for b := 0; b < nBins; b++ {
			verts, edges := binMembers(t, pd, b, bin)
			for packStart := 0; packStart < c.NumInstances(); packStart += pack {
				packLen := pack
				if packStart+packLen > c.NumInstances() {
					packLen = c.NumInstances() - packStart
				}
				path := slicePath(dir, p, b, packStart)
				if err := writeSliceFile(path, c, p, b, packStart, packLen, verts, edges, o.Compress, plan); err != nil {
					return err
				}
			}
		}
	}

	m := Manifest{
		K: a.K, Parts: a.Parts,
		T0: c.T0, Delta: c.Delta,
		Timesteps: c.NumInstances(),
		Pack:      pack, Bin: bin,
		Compress:         o.Compress,
		BinsPerPartition: binsPer,
		SnapshotEvery:    o.SnapshotEvery,
	}
	return writeManifestFile(filepath.Join(dir, manifestFile), &m)
}

// deltaPlan precomputes, for a delta-encoded write, which template vertices
// and edge slots changed at each timestep relative to its predecessor.
type deltaPlan struct {
	every  int
	vDirty [][]bool // [timestep][template vertex index]
	eDirty [][]bool // [timestep][template edge slot]
}

func newDeltaPlan(c *graph.Collection, every int) *deltaPlan {
	t := c.Template
	n := c.NumInstances()
	p := &deltaPlan{every: every, vDirty: make([][]bool, n), eDirty: make([][]bool, n)}
	for s := 1; s < n; s++ {
		p.vDirty[s] = make([]bool, t.NumVertices())
		p.eDirty[s] = make([]bool, t.NumEdges())
		graph.MarkChanged(c.Instance(s-1), c.Instance(s), p.vDirty[s], p.eDirty[s])
	}
	return p
}

// snapshot reports whether timestep s is written as a full snapshot of the
// pack starting at packStart.
func (p *deltaPlan) snapshot(s, packStart int) bool {
	return s == packStart || s%p.every == 0
}

// changedIn filters a bin's member indices down to those dirty at one
// timestep (nil dirty — timestep 0 — means nothing to report).
func changedIn(members []int32, dirty []bool) []int32 {
	if dirty == nil {
		return nil
	}
	var out []int32
	for _, i := range members {
		if dirty[i] {
			out = append(out, i)
		}
	}
	return out
}

// binMembers returns the template vertex indices and edge slots of bin b of
// a partition.
func binMembers(t *graph.Template, pd *subgraph.PartitionData, b, bin int) (verts, edges []int32) {
	lo := b * bin
	hi := lo + bin
	if hi > len(pd.Subgraphs) {
		hi = len(pd.Subgraphs)
	}
	for s := lo; s < hi; s++ {
		for _, lv := range pd.Subgraphs[s].Verts {
			g := pd.GlobalIdx[lv]
			verts = append(verts, g)
			elo, ehi := t.OutEdges(int(g))
			for e := elo; e < ehi; e++ {
				edges = append(edges, int32(e))
			}
		}
	}
	return verts, edges
}

func slicePath(dir string, p, b, packStart int) string {
	return filepath.Join(dir, sliceDir, fmt.Sprintf("p%d_b%d_t%d.slice", p, b, packStart))
}

// partSlicePath names a growing tail pack holding packLen < Pack timesteps.
// The length lives in the name so every manifest generation maps to a
// distinct, immutable set of files: publishing timestep T+1 writes new
// part files while readers holding the previous manifest keep reading the
// old ones. Once a pack completes, the plain slicePath name takes over and
// the part files become garbage for TrimSuperseded.
func partSlicePath(dir string, p, b, packStart, packLen int) string {
	return filepath.Join(dir, sliceDir, fmt.Sprintf("p%d_b%d_t%d.part%d.slice", p, b, packStart, packLen))
}

// slicePathFor resolves the on-disk file for a pack as described by a
// manifest generation. Complete packs (and offline-written partial final
// packs) live at the plain name; a live-appended tail pack lives at the
// length-suffixed part name. The part name is preferred when it exists so
// an appended dataset's tail wins over a stale plain file.
func slicePathFor(dir string, m *Manifest, p, b, packStart, packLen int) string {
	if packLen < m.Pack {
		if part := partSlicePath(dir, p, b, packStart, packLen); fileExists(part) {
			return part
		}
	}
	return slicePath(dir, p, b, packStart)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// slicePayload is the fully resolved content of one slice file, shared by
// the offline writer (WriteDataset) and the live Appender so both produce
// byte-identical encodings of the same logical pack.
type slicePayload struct {
	p, b      int
	packStart int
	verts     []int32
	edges     []int32
	instances []*graph.Instance // len = packLen
	delta     bool              // format version 2
	// Per step, version 2 only: snapshot-vs-delta kind and the bin's
	// changed-member lists (nil at the collection's first timestep).
	snaps    []bool
	chV, chE [][]int32
}

func writeSliceFile(path string, c *graph.Collection, p, b, packStart, packLen int, verts, edges []int32, compress bool, plan *deltaPlan) error {
	sp := &slicePayload{p: p, b: b, packStart: packStart, verts: verts, edges: edges}
	for s := packStart; s < packStart+packLen; s++ {
		sp.instances = append(sp.instances, c.Instance(s))
	}
	if plan != nil {
		sp.delta = true
		for s := packStart; s < packStart+packLen; s++ {
			sp.snaps = append(sp.snaps, plan.snapshot(s, packStart))
			sp.chV = append(sp.chV, changedIn(verts, plan.vDirty[s]))
			sp.chE = append(sp.chE, changedIn(edges, plan.eDirty[s]))
		}
	}
	return writeSliceData(path, sp, compress)
}

// encodeSlice writes the framed slice encoding to a sink. The byte layout
// is the single source of truth for slice files: every writer path funnels
// through here, which is what makes "WAL replay yields byte-identical
// packs" a property of the format rather than of any one writer.
func encodeSlice(sink io.Writer, sp *slicePayload) error {
	w := newWriter(sink)
	w.u32(sliceMagic)
	if sp.delta {
		w.u32(formatVersionDelta)
	} else {
		w.u32(formatVersion)
	}
	w.u32(uint32(sp.p))
	w.u32(uint32(sp.b))
	w.u32(uint32(sp.packStart))
	w.u32(uint32(len(sp.instances)))
	w.i32s(sp.verts)
	w.i32s(sp.edges)
	for i, ins := range sp.instances {
		w.i64(ins.Time)
		if !sp.delta {
			for c := range ins.VertexCols {
				writeColumnValues(w, &ins.VertexCols[c], sp.verts)
			}
			for c := range ins.EdgeCols {
				writeColumnValues(w, &ins.EdgeCols[c], sp.edges)
			}
			continue
		}
		// Version 2: every record carries the bin's changed-index summary
		// (empty at the collection's first timestep, where "changed" is
		// undefined) so the engine can skip clean subgraphs even across
		// snapshot boundaries; snapshots then store full columns, deltas
		// only the changed values.
		if sp.snaps[i] {
			w.byteVal(recSnapshot)
			w.i32s(sp.chV[i])
			w.i32s(sp.chE[i])
			for c := range ins.VertexCols {
				writeColumnValues(w, &ins.VertexCols[c], sp.verts)
			}
			for c := range ins.EdgeCols {
				writeColumnValues(w, &ins.EdgeCols[c], sp.edges)
			}
		} else {
			w.byteVal(recDelta)
			w.i32s(sp.chV[i])
			w.i32s(sp.chE[i])
			for c := range ins.VertexCols {
				writeColumnValues(w, &ins.VertexCols[c], sp.chV[i])
			}
			for c := range ins.EdgeCols {
				writeColumnValues(w, &ins.EdgeCols[c], sp.chE[i])
			}
		}
	}
	return w.finish()
}

// writeSliceData creates path directly (non-atomic; offline writes into a
// fresh dataset directory need no stronger guarantee).
func writeSliceData(path string, sp *slicePayload, compress bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var sink io.Writer = f
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(f)
		sink = gz
	}
	if err := encodeSlice(sink, sp); err != nil {
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("gofs: writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// writeSliceAtomic writes the slice to a temp file in the slices directory,
// fsyncs, and renames it into place — the append path's publication step,
// so a crash mid-append never leaves a readable-but-partial slice where a
// reader resolving the previous generation could trip over it.
func writeSliceAtomic(path string, sp *slicePayload, compress bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".slice_*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	var sink io.Writer = tmp
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(tmp)
		sink = gz
	}
	if err := encodeSlice(sink, sp); err != nil {
		return fail(err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: publishing %s: %w", path, err)
	}
	return nil
}

func writeTemplateFile(path string, t *graph.Template) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := newWriter(f)
	w.u32(templateMagic)
	w.u32(formatVersion)
	w.str(t.Name)
	ids := make([]int64, t.NumVertices())
	for i := range ids {
		ids[i] = int64(t.VertexID(i))
	}
	w.i64s(ids)
	offsets, targets, edgeIDs := t.RawCSR()
	w.i64s(offsets)
	w.i32s(targets)
	eids := make([]int64, len(edgeIDs))
	for i := range eids {
		eids[i] = int64(edgeIDs[i])
	}
	w.i64s(eids)
	writeSchema(w, t.VertexSchema())
	writeSchema(w, t.EdgeSchema())
	if err := w.finish(); err != nil {
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	return f.Close()
}

func readTemplateFile(path string) (*graph.Template, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := newReader(buf)
	if m := r.u32(); r.err == nil && m != templateMagic {
		return nil, fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	if v := r.u32(); r.err == nil && v != formatVersion {
		return nil, fmt.Errorf("gofs: %s: unsupported version %d", path, v)
	}
	name := r.str()
	rawIDs := r.i64s()
	offsets := r.i64s()
	targets := r.i32s()
	rawEIDs := r.i64s()
	vs := readSchema(r)
	es := readSchema(r)
	if err := r.verifyCRC(); err != nil {
		return nil, fmt.Errorf("gofs: %s: %w", path, err)
	}
	ids := make([]graph.VertexID, len(rawIDs))
	for i := range ids {
		ids[i] = graph.VertexID(rawIDs[i])
	}
	eids := make([]graph.EdgeID, len(rawEIDs))
	for i := range eids {
		eids[i] = graph.EdgeID(rawEIDs[i])
	}
	return graph.FromCSR(name, ids, offsets, targets, eids, vs, es)
}

func encodeManifest(sink io.Writer, m *Manifest) error {
	w := newWriter(sink)
	w.u32(manifestMagic)
	if m.SnapshotEvery > 0 {
		w.u32(formatVersionDelta)
	} else {
		w.u32(formatVersion)
	}
	w.u32(uint32(m.K))
	w.i32s(m.Parts)
	w.i64(m.T0)
	w.i64(m.Delta)
	w.u32(uint32(m.Timesteps))
	w.u32(uint32(m.Pack))
	w.u32(uint32(m.Bin))
	w.boolVal(m.Compress)
	w.i32s(m.BinsPerPartition)
	if m.SnapshotEvery > 0 {
		w.u32(uint32(m.SnapshotEvery))
	}
	return w.finish()
}

func writeManifestFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encodeManifest(f, m); err != nil {
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	return f.Close()
}

// writeManifestAtomic publishes a manifest via temp+fsync+rename. This is
// the commit point of a live append: a crash before the rename leaves the
// previous manifest (and its consistent file set) in place; a crash after
// it leaves the new generation fully visible.
func writeManifestAtomic(path string, m *Manifest) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest_*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := encodeManifest(tmp, m); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: publishing %s: %w", path, err)
	}
	return nil
}

func readManifestFile(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(newReader(buf), path)
}

// decodeManifest decodes a manifest file's bytes; path labels errors.
func decodeManifest(r *reader, path string) (*Manifest, error) {
	if m := r.u32(); r.err == nil && m != manifestMagic {
		return nil, fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	v := r.u32()
	if r.err == nil && v != formatVersion && v != formatVersionDelta {
		return nil, fmt.Errorf("gofs: %s: unsupported version %d", path, v)
	}
	m := &Manifest{}
	m.K = int(r.u32())
	m.Parts = r.i32s()
	m.T0 = r.i64()
	m.Delta = r.i64()
	m.Timesteps = int(r.u32())
	m.Pack = int(r.u32())
	m.Bin = int(r.u32())
	m.Compress = r.boolVal()
	m.BinsPerPartition = r.i32s()
	if v == formatVersionDelta {
		m.SnapshotEvery = int(r.u32())
	}
	if err := r.verifyCRC(); err != nil {
		return nil, fmt.Errorf("gofs: %s: %w", path, err)
	}
	return m, nil
}
