package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"diffgossip/internal/gossip"
	"diffgossip/internal/trust"
	"diffgossip/internal/wire"
)

// This file is the sharded persistence format that replaced the single
// snapshot.gob: a static manifest.json naming the layout plus one
// shard-NNNN.gob segment per subject shard. Segments are written
// individually with fsync + atomic rename as their shards fold — a clean
// shard's segment is never rewritten — and the write ordering (ledger fsync
// before any segment) keeps the boot invariant that the on-disk WAL covers
// everything any on-disk segment claims to have folded. The manifest is
// written once, when the directory is initialised or resharded, never per
// epoch, so there is no per-epoch global commit point to contend on.
//
// Migration: a data directory from the pre-shard format (snapshot.gob, no
// manifest) is split into segments on first boot via SplitSnapshot; the
// legacy file is left in place but ignored once a manifest exists.

// ShardSnapshot is one shard's immutable publication: the reputations and
// frozen trust columns of the subjects congruent to Shard mod Shards, as of
// this shard's last fold. Like the legacy Snapshot it is frozen at
// construction, so readers share it without locks; unlike it, each shard
// carries its own fold point (Epoch, Seq) — the composite view is
// snapshot-consistent per shard, not globally.
type ShardSnapshot struct {
	// Shard identifies this segment; Shards is the total count it was
	// written under. N is the network size.
	Shard, Shards, N int
	// Epoch is the service epoch counter value at this shard's last fold
	// (0 = boot, nothing folded yet). Seq is the ledger sequence number
	// through which this shard's subjects are folded: every ledger entry
	// for these subjects with Seq <= this value is reflected here.
	Epoch, Seq uint64
	// Global[k] is the global reputation of subject Shard + k*Shards;
	// Raters[k] its distinct-rater count.
	Global []float64
	Raters []int
	// Steps is the slowest campaign of the last fold; Converged is whether
	// every published value comes from a converged campaign (vacuously true
	// at boot). Computed counts the campaigns that actually ran in the last
	// fold — the per-shard increment of the service's incrementality fold
	// counter. Carried counts the subjects the last fold republished from
	// the shard's previous publication without running their campaigns.
	Steps     int
	Converged bool
	Computed  int
	Carried   int
	// TotalSteps sums every campaign's step count in the last fold;
	// WarmStarts/ColdStarts split Computed by how each campaign was seeded.
	TotalSteps             int
	WarmStarts, ColdStarts int
	// ElapsedNs is the last fold's wall-clock compute time.
	ElapsedNs int64
	// CreatedUnixNano is the publication wall-clock time.
	CreatedUnixNano int64
	// GraphFP fingerprints the gossip graph the fold ran over. Warm state is
	// only valid against the same graph (the masses live on its nodes and its
	// topology shaped them), so boot drops Warm when the fingerprint
	// disagrees with the running service's.
	GraphFP uint64
	// Cols holds the frozen trust columns of this shard's subjects.
	Cols *trust.Columns
	// Warm[k] is subject slot k's recorded campaign state — next epoch's warm
	// seed — or nil when none was kept. A nil slice (the pre-v2 decode, a
	// reshard, a boot snapshot) means every campaign restarts cold.
	Warm []*gossip.CampaignState
}

// NewBootShardSnapshot returns the empty shard state a fresh service
// publishes before any feedback for the shard has been folded.
func NewBootShardSnapshot(n, shard, shards int, createdUnixNano int64) *ShardSnapshot {
	subjects := ShardSubjects(n, shard, shards)
	cols, err := trust.NewColumns(n, subjects, make([][]int, len(subjects)), make([][]float64, len(subjects)))
	if err != nil {
		panic(err) // shard layout is internally generated; cannot fail
	}
	return &ShardSnapshot{
		Shard:           shard,
		Shards:          shards,
		N:               n,
		Global:          make([]float64, len(subjects)),
		Raters:          make([]int, len(subjects)),
		Converged:       true,
		CreatedUnixNano: createdUnixNano,
		Cols:            cols,
	}
}

// Covers reports whether subject j belongs to this shard.
func (s *ShardSnapshot) Covers(j int) bool {
	return j >= 0 && j < s.N && ShardOf(j, s.Shards) == s.Shard
}

// Reputation returns subject j's global reputation under this shard
// snapshot; j must belong to the shard.
func (s *ShardSnapshot) Reputation(j int) (float64, error) {
	if !s.Covers(j) {
		return 0, fmt.Errorf("store: subject %d not in shard %d/%d over N=%d", j, s.Shard, s.Shards, s.N)
	}
	return s.Global[SlotOf(j, s.Shards)], nil
}

// RaterCount returns the distinct-rater count of subject j (0 when j is not
// in this shard).
func (s *ShardSnapshot) RaterCount(j int) int {
	if !s.Covers(j) {
		return 0
	}
	return s.Raters[SlotOf(j, s.Shards)]
}

// segmentMagic opens a version-3 segment. Like trust's columns magic, its
// first byte can never start a gob stream, so LoadShardSnapshot tells v3
// from the gob-encoded v1/v2 segments by the first byte.
var segmentMagic = []byte("\x89DGS")

// shardWireVersion 3 is the flat little-endian format (internal/wire) Save
// writes. Versions 1 and 2 were gob-encoded shardWire values: version 2
// added TotalSteps/WarmStarts/ColdStarts, GraphFP and the Warm payload, and
// version-1 segments lack them, so every campaign restarts cold after the
// upgrade. Both still decode.
const shardWireVersion = 3

// shardWire is a decoded segment before validation. The gob decoder of
// versions 1 and 2 fills it directly (columns in Cols as their own gob
// payload); the v3 decoder fills it field by field and decodes the columns
// inline.
type shardWire struct {
	Version          int
	Shard, Shards, N int
	Epoch, Seq       uint64
	Global           []float64
	Raters           []int
	Steps            int
	Converged        bool
	Computed         int
	Carried          int
	TotalSteps       int
	WarmStarts       int
	ColdStarts       int
	ElapsedNs        int64
	CreatedUnixNano  int64
	GraphFP          uint64
	Cols             []byte
	Warm             []warmWire
}

// warmWire is a slot's campaign state on the wire. Gob cannot encode nil
// pointers inside a slice, so absent states ride as the zero value with
// Present=false instead of as nils; v3 keeps the same flag.
type warmWire struct {
	Present   bool
	Sparse    bool
	Raters    []int
	PrevVals  []float64
	Y, G      []float64
	Steps     int
	Converged bool
}

// maxShardWireN caps the node count accepted from a serialised segment,
// mirroring trust's maxWireN: decode allocates Θ(N) before reading entries.
const maxShardWireN = 1 << 24

// Save serialises the segment in the v3 format: the magic and version, the
// fixed-width header, Global and Raters, the frozen columns (trust's flat
// encoding, inline), then the warm states — a presence flag for the slice,
// and per slot a presence flag and, when present, the state's flags, step
// count, rater ids, recorded values and Y/G masses. The encoder streams, so
// no second copy of the segment is built.
func (s *ShardSnapshot) Save(w io.Writer) error {
	e := wire.NewEncoder(w)
	e.Raw(segmentMagic)
	e.Uint64(shardWireVersion)
	for _, v := range []int64{
		int64(s.Shard), int64(s.Shards), int64(s.N),
		int64(s.Epoch), int64(s.Seq),
		int64(s.Steps), int64(s.Computed), int64(s.Carried), int64(s.TotalSteps),
		int64(s.WarmStarts), int64(s.ColdStarts),
		s.ElapsedNs, s.CreatedUnixNano, int64(s.GraphFP),
	} {
		e.Int64(v)
	}
	e.Bool(s.Converged)
	e.Float64s(s.Global)
	e.Uint32s(s.Raters)
	s.Cols.Encode(e)
	e.Bool(s.Warm != nil)
	if s.Warm != nil {
		e.Uint64(uint64(len(s.Warm)))
		for _, ws := range s.Warm {
			e.Bool(ws != nil)
			if ws == nil {
				continue
			}
			e.Bool(ws.Sparse)
			e.Bool(ws.Converged)
			e.Int64(int64(ws.Steps))
			e.Uint32s(ws.Raters)
			e.Float64s(ws.PrevVals)
			e.Float64s(ws.Y)
			e.Float64s(ws.G)
		}
	}
	if err := e.Flush(); err != nil {
		return fmt.Errorf("store: encode shard snapshot: %w", err)
	}
	return nil
}

// LoadShardSnapshot deserialises a segment written by Save (v3) or by an
// earlier gob-encoding release (v1/v2), validating its shape against the
// shard layout it claims.
func LoadShardSnapshot(r io.Reader) (*ShardSnapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read shard snapshot: %w", err)
	}
	var sw shardWire
	var cols *trust.Columns
	if bytes.HasPrefix(b, segmentMagic) {
		sw, cols, err = decodeSegment(b)
	} else {
		sw, cols, err = decodeGobSegment(b)
	}
	if err != nil {
		return nil, err
	}
	want := len(ShardSubjects(sw.N, sw.Shard, sw.Shards))
	if len(sw.Global) != want || len(sw.Raters) != want {
		return nil, fmt.Errorf("store: shard snapshot has %d/%d slots, want %d", len(sw.Global), len(sw.Raters), want)
	}
	if cols.N() != sw.N || len(cols.Subjects()) != want {
		return nil, fmt.Errorf("store: shard snapshot columns do not match the shard layout")
	}
	for k, j := range cols.Subjects() {
		if j != sw.Shard+k*sw.Shards {
			return nil, fmt.Errorf("store: shard snapshot column %d holds subject %d", k, j)
		}
	}
	warm, err := decodeWarm(sw.Warm, sw.N, want)
	if err != nil {
		return nil, err
	}
	return &ShardSnapshot{
		Shard: sw.Shard, Shards: sw.Shards, N: sw.N,
		Epoch: sw.Epoch, Seq: sw.Seq,
		Global: sw.Global, Raters: sw.Raters,
		Steps: sw.Steps, Converged: sw.Converged, Computed: sw.Computed, Carried: sw.Carried,
		TotalSteps: sw.TotalSteps, WarmStarts: sw.WarmStarts, ColdStarts: sw.ColdStarts,
		ElapsedNs: sw.ElapsedNs, CreatedUnixNano: sw.CreatedUnixNano,
		GraphFP: sw.GraphFP,
		Cols:    cols,
		Warm:    warm,
	}, nil
}

// checkHeader validates a decoded segment's layout. It must pass before
// anything allocates Θ(N): a corrupt header is an error, not an
// out-of-range allocation (same guard class as trust's maxWireN, found by
// fuzzing the legacy snapshot decoder).
func (sw *shardWire) checkHeader() error {
	if sw.N < 0 || sw.Shards < 1 || sw.Shard < 0 || sw.Shard >= sw.Shards {
		return fmt.Errorf("store: malformed shard snapshot header")
	}
	if sw.N > maxShardWireN {
		return fmt.Errorf("store: shard snapshot size %d exceeds the wire-format bound %d", sw.N, maxShardWireN)
	}
	return nil
}

// decodeSegment parses a v3 segment. Every array length is checked against
// the bytes left before it allocates (internal/wire), and the columns get
// trust's full validation; the warm payload is validated by decodeWarm.
func decodeSegment(b []byte) (shardWire, *trust.Columns, error) {
	d := wire.NewDecoder(b)
	d.Raw(len(segmentMagic))
	sw := shardWire{Version: int(d.Uint64())}
	if d.Err() == nil && sw.Version != shardWireVersion {
		return sw, nil, fmt.Errorf("store: unsupported shard snapshot version %d", sw.Version)
	}
	sw.Shard, sw.Shards, sw.N = int(d.Int64()), int(d.Int64()), int(d.Int64())
	sw.Epoch, sw.Seq = d.Uint64(), d.Uint64()
	sw.Steps, sw.Computed, sw.Carried, sw.TotalSteps = int(d.Int64()), int(d.Int64()), int(d.Int64()), int(d.Int64())
	sw.WarmStarts, sw.ColdStarts = int(d.Int64()), int(d.Int64())
	sw.ElapsedNs, sw.CreatedUnixNano, sw.GraphFP = d.Int64(), d.Int64(), d.Uint64()
	sw.Converged = d.Bool()
	if d.Err() == nil {
		if err := sw.checkHeader(); err != nil {
			return sw, nil, err
		}
	}
	sw.Global = d.Float64s()
	sw.Raters = d.Uint32s()
	cols := trust.DecodeColumns(d)
	if d.Bool() {
		// Each slot takes at least its presence byte, so the count is
		// bounded by the input before the slot array is allocated.
		sw.Warm = make([]warmWire, d.Int(d.Len()))
		for k := range sw.Warm {
			w := &sw.Warm[k]
			if w.Present = d.Bool(); !w.Present {
				continue
			}
			w.Sparse, w.Converged = d.Bool(), d.Bool()
			w.Steps = int(d.Int64())
			w.Raters = d.Uint32s()
			w.PrevVals, w.Y, w.G = d.Float64s(), d.Float64s(), d.Float64s()
		}
	}
	if d.Err() == nil && d.Len() != 0 {
		d.Fail(fmt.Errorf("%d trailing bytes", d.Len()))
	}
	if d.Err() != nil {
		return sw, nil, fmt.Errorf("store: decode shard snapshot: %w", d.Err())
	}
	return sw, cols, nil
}

// decodeGobSegment parses a v1 or v2 (gob) segment.
func decodeGobSegment(b []byte) (shardWire, *trust.Columns, error) {
	var sw shardWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&sw); err != nil {
		return sw, nil, fmt.Errorf("store: decode shard snapshot: %w", err)
	}
	if sw.Version < 1 || sw.Version > 2 {
		return sw, nil, fmt.Errorf("store: unsupported shard snapshot version %d", sw.Version)
	}
	if err := sw.checkHeader(); err != nil {
		return sw, nil, err
	}
	cols, err := trust.LoadColumns(bytes.NewReader(sw.Cols))
	return sw, cols, err
}

// decodeWarm validates and unpacks a segment's warm payload. Warm state is an
// optimisation, not ground truth, but a corrupt segment must still fail
// loudly rather than inject NaNs or negative weight mass into next epoch's
// campaigns — the same strictness the column payload gets.
func decodeWarm(slots []warmWire, n, want int) ([]*gossip.CampaignState, error) {
	if slots == nil {
		return nil, nil
	}
	if len(slots) != want {
		return nil, fmt.Errorf("store: shard snapshot has %d warm slots, want %d", len(slots), want)
	}
	warm := make([]*gossip.CampaignState, want)
	for k := range slots {
		w := &slots[k]
		if !w.Present {
			continue
		}
		if len(w.Raters) > n || len(w.PrevVals) != len(w.Raters) {
			return nil, fmt.Errorf("store: warm slot %d has a malformed rater set", k)
		}
		prev := -1
		for x, i := range w.Raters {
			if i <= prev || i >= n {
				return nil, fmt.Errorf("store: warm slot %d raters not strictly ascending in range", k)
			}
			prev = i
			v := w.PrevVals[x]
			if !(v >= 0 && v <= 1) { // rejects NaN too
				return nil, fmt.Errorf("store: warm slot %d value %v out of [0,1]", k, v)
			}
		}
		size := n
		if w.Sparse {
			size = len(w.Raters)
		}
		if len(w.Y) != size || len(w.G) != size {
			return nil, fmt.Errorf("store: warm slot %d masses have length %d/%d, want %d", k, len(w.Y), len(w.G), size)
		}
		for x := range w.Y {
			if math.IsNaN(w.Y[x]) || math.IsInf(w.Y[x], 0) {
				return nil, fmt.Errorf("store: warm slot %d carries a non-finite value mass", k)
			}
			if !(w.G[x] >= 0) || math.IsInf(w.G[x], 0) {
				return nil, fmt.Errorf("store: warm slot %d carries an invalid weight mass", k)
			}
		}
		if w.Steps < 0 {
			return nil, fmt.Errorf("store: warm slot %d has a negative step count", k)
		}
		warm[k] = &gossip.CampaignState{
			Sparse: w.Sparse,
			Raters: w.Raters, PrevVals: w.PrevVals,
			Y: w.Y, G: w.G, Steps: w.Steps, Converged: w.Converged,
		}
	}
	return warm, nil
}

// SaveFile writes the segment to path atomically and durably (fsync, rename,
// directory fsync), like the legacy Snapshot.SaveFile.
func (s *ShardSnapshot) SaveFile(path string) error {
	err := writeFileAtomic(path, ".shard-*.tmp", s.Save)
	if err == nil {
		snapshotWrites.Inc()
	}
	return err
}

// LoadShardFile reads a segment written by SaveFile; (nil, nil) when the
// file does not exist (a shard that never folded has no segment).
func LoadShardFile(path string) (*ShardSnapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open shard snapshot: %w", err)
	}
	defer f.Close()
	return LoadShardSnapshot(f)
}

// Manifest is the static identity of a sharded data directory: written once
// when the directory is initialised (or resharded), never per epoch.
type Manifest struct {
	Version         int   `json:"version"`
	N               int   `json:"n"`
	Shards          int   `json:"shards"`
	CreatedUnixNano int64 `json:"created_unix_nano"`
}

const manifestVersion = 1

// SaveManifestFile writes the manifest atomically and durably.
func SaveManifestFile(m Manifest, path string) error {
	m.Version = manifestVersion
	return writeFileAtomic(path, ".manifest-*.tmp", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(m)
	})
}

// LoadManifestFile reads a manifest; (nil, nil) when the file does not
// exist, so boot code can fall back to the legacy single-snapshot format.
func LoadManifestFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", m.Version)
	}
	if m.N < 1 || m.Shards < 1 || m.Shards > m.N {
		return nil, fmt.Errorf("store: malformed manifest (n=%d, shards=%d)", m.N, m.Shards)
	}
	return &m, nil
}

// SplitSnapshot splits a legacy single-file snapshot into per-shard
// segments — the boot-time migration from the pre-shard format. Globals,
// rater counts and trust columns are copied verbatim, so the migrated
// directory serves exactly the reputations the old one did; every segment
// inherits the snapshot's fold point. Warm state and the graph fingerprint
// are not carried (the legacy format never had them, and a reshard
// re-slots every subject), so the first post-split epoch restarts cold —
// correct, just slower.
func SplitSnapshot(snap *Snapshot, shards int) ([]*ShardSnapshot, error) {
	if shards < 1 || shards > snap.N {
		return nil, fmt.Errorf("store: cannot split snapshot over N=%d into %d shards", snap.N, shards)
	}
	segs := make([]*ShardSnapshot, shards)
	for sh := 0; sh < shards; sh++ {
		subjects := ShardSubjects(snap.N, sh, shards)
		cols, err := trust.ColumnsOf(snap.Trust, subjects)
		if err != nil {
			return nil, err
		}
		global := make([]float64, len(subjects))
		raters := make([]int, len(subjects))
		for k, j := range subjects {
			global[k] = snap.Global[j]
			raters[k] = snap.Raters[j]
		}
		segs[sh] = &ShardSnapshot{
			Shard: sh, Shards: shards, N: snap.N,
			Epoch: snap.Epoch, Seq: snap.Seq,
			Global: global, Raters: raters,
			Steps: snap.Steps, Converged: snap.Converged,
			ElapsedNs: snap.ElapsedNs, CreatedUnixNano: snap.CreatedUnixNano,
			Cols: cols,
		}
	}
	return segs, nil
}

// StitchSnapshot reassembles a full-width snapshot from one segment per
// shard — the inverse of SplitSnapshot, used to reshard a directory whose
// manifest disagrees with the configured shard count and by tests. The
// stitched Seq is the minimum over the segments: entries above it may
// already be folded into some shards, but refolding is idempotent, so the
// conservative fold point is always safe. Epoch is the maximum, keeping the
// service's epoch counter monotone.
func StitchSnapshot(segs []*ShardSnapshot) (*Snapshot, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("store: no segments to stitch")
	}
	n := segs[0].N
	out := &Snapshot{
		N:      n,
		Trust:  trust.NewMatrix(n),
		Global: make([]float64, n),
		Raters: make([]int, n),
	}
	first := true
	for sh, seg := range segs {
		if seg == nil {
			return nil, fmt.Errorf("store: missing segment %d", sh)
		}
		if seg.N != n || seg.Shards != len(segs) || seg.Shard != sh {
			return nil, fmt.Errorf("store: segment %d does not fit the layout (shard %d/%d over N=%d)", sh, seg.Shard, seg.Shards, seg.N)
		}
		if first || seg.Seq < out.Seq {
			out.Seq = seg.Seq
		}
		if seg.Epoch > out.Epoch {
			out.Epoch = seg.Epoch
		}
		if seg.Steps > out.Steps {
			out.Steps = seg.Steps
		}
		if seg.CreatedUnixNano > out.CreatedUnixNano {
			out.CreatedUnixNano = seg.CreatedUnixNano
		}
		out.ElapsedNs += seg.ElapsedNs
		first = false
		for k, j := range seg.Cols.Subjects() {
			out.Global[j] = seg.Global[k]
			out.Raters[j] = seg.Raters[k]
			_, ids, vals := seg.Cols.ColumnAt(k)
			for x, i := range ids {
				if err := out.Trust.Set(i, j, vals[x]); err != nil {
					return nil, err
				}
			}
		}
	}
	out.Converged = true
	for _, seg := range segs {
		out.Converged = out.Converged && seg.Converged
	}
	return out, nil
}
