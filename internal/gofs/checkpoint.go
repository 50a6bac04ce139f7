package gofs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Checkpoint storage: one file per (rank, timestep) under a checkpoint
// directory, holding an opaque payload the TI-BSP runner serializes at the
// timestep boundary (temporal messages, program state, result
// accumulators). The format follows the other GoFS files — magic, version,
// identity header, trailing CRC-32 — and every write goes to a temp file
// first and is renamed into place, so a crash mid-write never leaves a
// readable-but-partial checkpoint: either the complete file exists or it
// does not.
const (
	checkpointMagic = 0x476F434B // "GoCK"
	// checkpointVersion is the checkpoint format version, independent of
	// the dataset formatVersion: resume refuses payloads written by a
	// different (stale or future) layout.
	checkpointVersion = 1
	// checkpointKeep is how many most-recent checkpoints survive pruning
	// per rank. Two, because in a distributed run ranks can be at most one
	// timestep apart at a kill, and the cluster-wide resume point is the
	// minimum — every rank must still hold that slightly older state.
	checkpointKeep = 2
)

// CheckpointPath returns the path of rank's checkpoint for a timestep.
func CheckpointPath(dir string, rank, timestep int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt_r%d_t%08d.ckpt", rank, timestep))
}

// WriteCheckpoint atomically persists a rank's timestep-boundary state:
// the payload is framed (magic, version, rank, timestep, length, CRC-32),
// written to a temp file in dir, fsynced, and renamed into place; older
// checkpoints of the rank beyond the retention window are then pruned.
func WriteCheckpoint(dir string, rank, timestep int, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, fmt.Sprintf(".ckpt_r%d_*", rank))
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	w := newWriter(tmp)
	w.u32(checkpointMagic)
	w.u32(checkpointVersion)
	w.u32(uint32(rank))
	w.u64(uint64(timestep))
	w.u64(uint64(len(payload)))
	w.write(payload)
	if err := w.finish(); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing checkpoint t%d: %w", timestep, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: writing checkpoint t%d: %w", timestep, err)
	}
	if err := os.Rename(tmpName, CheckpointPath(dir, rank, timestep)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("gofs: publishing checkpoint t%d: %w", timestep, err)
	}
	pruneCheckpoints(dir, rank, checkpointKeep)
	return nil
}

// ReadCheckpoint loads and verifies one rank's checkpoint for a specific
// timestep. Truncated files, checksum mismatches, and version/identity
// mismatches all return an error and never a partial payload.
func ReadCheckpoint(dir string, rank, timestep int) ([]byte, error) {
	path := CheckpointPath(dir, rank, timestep)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := newReader(buf)
	if m := r.u32(); r.err == nil && m != checkpointMagic {
		return nil, fmt.Errorf("gofs: %s: bad magic %08x", path, m)
	}
	if v := r.u32(); r.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("gofs: %s: unsupported checkpoint version %d (want %d)", path, v, checkpointVersion)
	}
	if got := int(r.u32()); r.err == nil && got != rank {
		return nil, fmt.Errorf("gofs: %s: checkpoint belongs to rank %d, want %d", path, got, rank)
	}
	if got := int(r.u64()); r.err == nil && got != timestep {
		return nil, fmt.Errorf("gofs: %s: checkpoint covers timestep %d, want %d", path, got, timestep)
	}
	n := r.u64()
	if r.err == nil && n > maxListLen {
		return nil, fmt.Errorf("gofs: %s: payload length %d exceeds format limit", path, n)
	}
	// The payload is returned as a view of the file buffer: the buffer
	// holds nothing else but the fixed header and checksum.
	payload := r.take(int(n))
	if err := r.verifyCRC(); err != nil {
		return nil, fmt.Errorf("gofs: %s: %w", path, err)
	}
	return payload, nil
}

// CheckpointTimesteps lists the timesteps for which rank has a checkpoint
// file in dir, ascending. A missing directory is an empty list, not an
// error (a first run has no checkpoints yet).
func CheckpointTimesteps(dir string, rank int) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range entries {
		var r, ts int
		if _, err := fmt.Sscanf(e.Name(), "ckpt_r%d_t%08d.ckpt", &r, &ts); err == nil && r == rank {
			steps = append(steps, ts)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// LatestCheckpoint returns the newest checkpoint of rank that loads
// cleanly, walking backwards past corrupt files (truncation, bad CRC,
// stale version): recovery falls back to the previous complete checkpoint
// rather than failing or loading partial state. It returns timestep -1
// (and a nil payload) when no usable checkpoint exists; err is non-nil
// only for directory-level failures.
func LatestCheckpoint(dir string, rank int) (timestep int, payload []byte, err error) {
	steps, err := CheckpointTimesteps(dir, rank)
	if err != nil {
		return -1, nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		payload, err := ReadCheckpoint(dir, rank, steps[i])
		if err == nil {
			return steps[i], payload, nil
		}
	}
	return -1, nil, nil
}

// pruneCheckpoints removes all but the keep most recent checkpoints of a
// rank. Removal failures are ignored: pruning is best-effort hygiene, and
// a leftover old checkpoint is harmless.
func pruneCheckpoints(dir string, rank, keep int) {
	steps, err := CheckpointTimesteps(dir, rank)
	if err != nil || len(steps) <= keep {
		return
	}
	for _, ts := range steps[:len(steps)-keep] {
		os.Remove(CheckpointPath(dir, rank, ts))
	}
}
