package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"diffgossip/internal/trust"
)

// Snapshot is one immutable, versioned publication of the reputation state:
// the trust matrix as of the epoch's fold point plus the reputations the
// differential-gossip epoch computed from it. Snapshots are frozen at
// construction — nothing in the service ever mutates one after it is
// published — so any number of readers may hold and query the same Snapshot
// concurrently, with no locking, while later epochs build their successors.
type Snapshot struct {
	// Epoch is the snapshot version, strictly increasing from 0 (the empty
	// boot snapshot).
	Epoch uint64
	// Seq is the highest ledger sequence number folded into Trust; feedback
	// with larger Seq is not yet visible here.
	Seq uint64
	// N is the network size.
	N int
	// Trust is the frozen direct-interaction matrix the epoch ran on.
	// It must never be mutated (see the trust.Matrix concurrency contract);
	// concurrent reads of a never-written Matrix are safe.
	Trust *trust.Matrix
	// Global[j] is subject j's global reputation (Algorithm 1's fixed point,
	// as estimated by the epoch's vector-gossip run; exactly 0 for subjects
	// nobody has rated).
	Global []float64
	// Raters[j] is the number of distinct raters of subject j in Trust.
	Raters []int
	// Steps and Converged report the epoch's underlying gossip run (both
	// zero-valued on the boot snapshot, which runs no gossip).
	Steps     int
	Converged bool
	// ElapsedNs is the epoch's wall-clock compute time in nanoseconds.
	ElapsedNs int64
	// CreatedUnixNano is the publication wall-clock time.
	CreatedUnixNano int64
}

// NewBootSnapshot returns the epoch-0 snapshot an empty service publishes
// before any feedback has been folded.
func NewBootSnapshot(n int, createdUnixNano int64) *Snapshot {
	return &Snapshot{
		N:               n,
		Trust:           trust.NewMatrix(n),
		Global:          make([]float64, n),
		Raters:          make([]int, n),
		CreatedUnixNano: createdUnixNano,
	}
}

// Reputation returns subject's global reputation under this snapshot.
func (s *Snapshot) Reputation(subject int) (float64, error) {
	if subject < 0 || subject >= s.N {
		return 0, fmt.Errorf("store: subject %d out of range [0,%d)", subject, s.N)
	}
	return s.Global[subject], nil
}

// Personal returns the globally calibrated local reputation of subject as
// seen by rater — the GCLR view (paper eq. (6)) evaluated on the frozen
// matrix, so it is consistent with the same epoch as the global values.
func (s *Snapshot) Personal(rater, subject int, p trust.WeightParams) (float64, error) {
	if rater < 0 || rater >= s.N || subject < 0 || subject >= s.N {
		return 0, fmt.Errorf("store: pair (%d,%d) out of range [0,%d)", rater, subject, s.N)
	}
	return trust.WeightedColumn(s.Trust, rater, subject, s.Trust.InteractedWith(rater), p, true), nil
}

// snapshotWire is the gob representation; the matrix rides as its own gob
// payload so trust's versioned wire format is reused unchanged.
type snapshotWire struct {
	Version         int
	Epoch, Seq      uint64
	N               int
	Global          []float64
	Raters          []int
	Steps           int
	Converged       bool
	ElapsedNs       int64
	CreatedUnixNano int64
	Matrix          []byte
}

const snapshotWireVersion = 1

// Save serialises the snapshot with gob.
func (s *Snapshot) Save(w io.Writer) error {
	var mb bytes.Buffer
	if err := s.Trust.Save(&mb); err != nil {
		return fmt.Errorf("store: encode snapshot matrix: %w", err)
	}
	wire := snapshotWire{
		Version:         snapshotWireVersion,
		Epoch:           s.Epoch,
		Seq:             s.Seq,
		N:               s.N,
		Global:          s.Global,
		Raters:          s.Raters,
		Steps:           s.Steps,
		Converged:       s.Converged,
		ElapsedNs:       s.ElapsedNs,
		CreatedUnixNano: s.CreatedUnixNano,
		Matrix:          mb.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot deserialises a snapshot written by Save, validating shape.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var wire snapshotWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if wire.Version != snapshotWireVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", wire.Version)
	}
	if wire.N < 0 || len(wire.Global) != wire.N || len(wire.Raters) != wire.N {
		return nil, fmt.Errorf("store: malformed snapshot payload")
	}
	m, err := trust.Load(bytes.NewReader(wire.Matrix))
	if err != nil {
		return nil, err
	}
	if m.N() != wire.N {
		return nil, fmt.Errorf("store: snapshot matrix size %d does not match N=%d", m.N(), wire.N)
	}
	return &Snapshot{
		Epoch:           wire.Epoch,
		Seq:             wire.Seq,
		N:               wire.N,
		Trust:           m,
		Global:          wire.Global,
		Raters:          wire.Raters,
		Steps:           wire.Steps,
		Converged:       wire.Converged,
		ElapsedNs:       wire.ElapsedNs,
		CreatedUnixNano: wire.CreatedUnixNano,
	}, nil
}

// SaveFile writes the snapshot to path atomically and durably: the bytes
// land in a temporary file in the same directory, are fsynced, replace path
// by rename, and the directory entry is fsynced too — so after a crash (or
// power loss) the path holds either the old snapshot or the complete new
// one, never a torn file.
func (s *Snapshot) SaveFile(path string) error {
	return writeFileAtomic(path, ".snapshot-*.tmp", s.Save)
}

// replaceFile is the one atomic-and-durable file-replace primitive: write to
// a same-directory temp file, fsync, rename over path, fsync the directory
// entry. After a crash the path holds either the old contents or the
// complete new ones, never a torn file. On success it returns the temp
// handle, still open and positioned after the written bytes: the rename
// moved its inode to path, so an append-mode owner (the WAL, the hint log)
// keeps it as its new handle, with no reopen step that could fail and leave
// it half-swapped. On failure the temp file is gone and path is untouched.
func replaceFile(path, tmpPattern string, write func(io.Writer) error) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return nil, fmt.Errorf("store: temp file: %w", err)
	}
	fail := func(err error) (*os.File, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: sync %s: %w", filepath.Base(path), err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(fmt.Errorf("store: publish %s: %w", filepath.Base(path), err))
	}
	syncDir(dir)
	return tmp, nil
}

// writeFileAtomic is replaceFile for callers that only publish the file.
func writeFileAtomic(path, tmpPattern string, write func(io.Writer) error) error {
	f, err := replaceFile(path, tmpPattern, write)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", filepath.Base(path), err)
	}
	return nil
}

// dirSync fsyncs an open directory. It is a variable only so tests can
// inject a failure.
var dirSync = (*os.File).Sync

// syncDir fsyncs a directory, making a rename inside it durable. Some
// filesystems reject directory fsync, so a failure does not fail the
// replace; it is counted in diffgossip_store_dir_fsync_errors_total so an
// operator can see that renames are not crash-durable on this disk.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err == nil {
		err = dirSync(d)
		d.Close()
	}
	if err != nil {
		dirFsyncErrors.Inc()
	}
}

// LoadSnapshotFile reads a snapshot written by SaveFile. It returns
// (nil, nil) when the file does not exist, so boot code can treat "no
// snapshot yet" as a non-error.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	return LoadSnapshot(f)
}
