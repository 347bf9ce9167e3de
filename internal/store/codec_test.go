package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"diffgossip/internal/gossip"
	"diffgossip/internal/trust"
)

// codecSegment is a segment exercising every v3 field: a populated header,
// columns with rated and unrated subjects, and dense, sparse and absent warm
// slots.
func codecSegment(t testing.TB) *ShardSnapshot {
	t.Helper()
	snap := NewBootSnapshot(15, 1)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{2, 1, 0.5}, {9, 1, 0.25}, {3, 7, 1}, {0, 13, 0.125}, {14, 13, 0}} {
		if err := snap.Trust.Set(e.i, e.j, e.v); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := SplitSnapshot(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	seg := segs[1] // subjects 1, 4, 7, 10, 13
	seg.Epoch, seg.Seq = 9, 1234
	seg.Global = []float64{0.375, 0, 1, 0, 0.0625}
	seg.Raters = []int{2, 0, 1, 0, 2}
	seg.Steps, seg.Converged, seg.Computed, seg.Carried = 17, true, 3, 2
	seg.TotalSteps, seg.WarmStarts, seg.ColdStarts = 40, 2, 1
	seg.ElapsedNs, seg.CreatedUnixNano, seg.GraphFP = 5555, -7, 0xfeedbeefcafef00d
	dense := &gossip.CampaignState{Raters: []int{3}, PrevVals: []float64{1},
		Y: make([]float64, 15), G: make([]float64, 15), Steps: 12, Converged: true}
	dense.Y[3], dense.G[3] = 1, 1
	seg.Warm = []*gossip.CampaignState{
		{Sparse: true, Raters: []int{2, 9}, PrevVals: []float64{0.5, 0.25},
			Y: []float64{0.4, 0.35}, G: []float64{1, 1}, Steps: 7, Converged: true},
		nil,
		dense,
		nil,
		{Sparse: true, Raters: []int{0, 14}, PrevVals: []float64{0.125, 0},
			Y: []float64{0.1, math.Copysign(0, -1)}, G: []float64{1.5, 0.5}, Steps: 3},
	}
	return seg
}

// assertSameSegment requires got to deep-equal want, comparing the frozen
// columns through their accessors and every float by its bits.
func assertSameSegment(t *testing.T, name string, got, want *ShardSnapshot) {
	t.Helper()
	g, w := *got, *want
	g.Cols, w.Cols = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: decoded segment differs:\n got %+v\nwant %+v", name, g, w)
	}
	for k := range want.Global {
		if math.Float64bits(got.Global[k]) != math.Float64bits(want.Global[k]) {
			t.Fatalf("%s: Global[%d] bits differ", name, k)
		}
	}
	for k, ws := range want.Warm {
		if ws == nil {
			continue
		}
		for _, pair := range [][2][]float64{{got.Warm[k].Y, ws.Y}, {got.Warm[k].G, ws.G}, {got.Warm[k].PrevVals, ws.PrevVals}} {
			for x := range pair[1] {
				if math.Float64bits(pair[0][x]) != math.Float64bits(pair[1][x]) {
					t.Fatalf("%s: warm slot %d value %d bits differ", name, k, x)
				}
			}
		}
	}
	if got.Cols.N() != want.Cols.N() || !reflect.DeepEqual(got.Cols.Subjects(), want.Cols.Subjects()) {
		t.Fatalf("%s: columns shape differs", name)
	}
	for s := range want.Cols.Subjects() {
		_, gi, gv := got.Cols.ColumnAt(s)
		_, wi, wv := want.Cols.ColumnAt(s)
		if len(gi) != len(wi) {
			t.Fatalf("%s: column slot %d has %d raters, want %d", name, s, len(gi), len(wi))
		}
		for x := range wi {
			if gi[x] != wi[x] || math.Float64bits(gv[x]) != math.Float64bits(wv[x]) {
				t.Fatalf("%s: column slot %d entry %d differs", name, s, x)
			}
		}
	}
}

func encodeSegment(t testing.TB, seg *ShardSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := seg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSnapshotV3RoundTrip: Save writes v3 and a decoded segment
// deep-equals the original — with mixed warm slots, with no warm state,
// with warm slots all absent, and with every column empty.
func TestShardSnapshotV3RoundTrip(t *testing.T) {
	full := codecSegment(t)
	noWarm := codecSegment(t)
	noWarm.Warm = nil
	absent := codecSegment(t)
	absent.Warm = make([]*gossip.CampaignState, len(absent.Warm))
	boot := NewBootShardSnapshot(15, 2, 4, 99)
	for name, seg := range map[string]*ShardSnapshot{
		"mixed warm": full, "no warm": noWarm, "absent warm": absent, "empty columns": boot,
	} {
		b := encodeSegment(t, seg)
		if !bytes.HasPrefix(b, segmentMagic) || binary.LittleEndian.Uint64(b[len(segmentMagic):]) != 3 {
			t.Fatalf("%s: Save did not write a v3 segment", name)
		}
		got, err := LoadShardSnapshot(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameSegment(t, name, got, seg)
	}
}

// gobV2Segment encodes seg the way releases before v3 did: a gob shardWire
// with its columns as a version-1 gob payload.
func gobV2Segment(t testing.TB, seg *ShardSnapshot) []byte {
	t.Helper()
	type columnsWireV1 struct {
		N        int
		Subjects []int
		Counts   []int
		I        []int
		V        []float64
		Version  int
	}
	cw := columnsWireV1{N: seg.N, Subjects: seg.Cols.Subjects(), Version: 1}
	for s := range seg.Cols.Subjects() {
		_, ids, vals := seg.Cols.ColumnAt(s)
		cw.Counts = append(cw.Counts, len(ids))
		cw.I = append(cw.I, ids...)
		cw.V = append(cw.V, vals...)
	}
	var cb bytes.Buffer
	if err := gob.NewEncoder(&cb).Encode(cw); err != nil {
		t.Fatal(err)
	}
	sw := shardWire{
		Version: 2, Shard: seg.Shard, Shards: seg.Shards, N: seg.N,
		Epoch: seg.Epoch, Seq: seg.Seq, Global: seg.Global, Raters: seg.Raters,
		Steps: seg.Steps, Converged: seg.Converged, Computed: seg.Computed,
		TotalSteps: seg.TotalSteps, WarmStarts: seg.WarmStarts, ColdStarts: seg.ColdStarts,
		ElapsedNs: seg.ElapsedNs, CreatedUnixNano: seg.CreatedUnixNano, GraphFP: seg.GraphFP,
		Cols: cb.Bytes(),
	}
	if seg.Warm != nil {
		sw.Warm = make([]warmWire, len(seg.Warm))
		for k, ws := range seg.Warm {
			if ws != nil {
				sw.Warm[k] = warmWire{Present: true, Sparse: ws.Sparse, Raters: ws.Raters, PrevVals: ws.PrevVals,
					Y: ws.Y, G: ws.G, Steps: ws.Steps, Converged: ws.Converged}
			}
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSnapshotGobV2StillDecodes: segments written before v3 boot
// unchanged (v1 is pinned by the service's prev8 fixture).
func TestShardSnapshotGobV2StillDecodes(t *testing.T) {
	seg := codecSegment(t)
	got, err := LoadShardSnapshot(bytes.NewReader(gobV2Segment(t, seg)))
	if err != nil {
		t.Fatal(err)
	}
	want := *seg
	want.Carried = 0 // v2 never carried the count
	assertSameSegment(t, "gob v2", got, &want)
}

// TestShardSnapshotV3DecodeValidates: the v3 decoder applies the checks the
// v2 path applies — trust's column validation, decodeWarm's warm-state
// validation and the layout checks — fails on every truncation, and
// refuses an oversized length prefix before allocating for it.
func TestShardSnapshotV3DecodeValidates(t *testing.T) {
	valid := encodeSegment(t, codecSegment(t))

	corrupt := map[string]func(*ShardSnapshot){
		"global slots":       func(s *ShardSnapshot) { s.Global = s.Global[:4] },
		"rater slots":        func(s *ShardSnapshot) { s.Raters = append(s.Raters, 0) },
		"warm slot count":    func(s *ShardSnapshot) { s.Warm = s.Warm[:4] },
		"warm NaN mass":      func(s *ShardSnapshot) { s.Warm[0].Y[1] = math.NaN() },
		"warm neg weight":    func(s *ShardSnapshot) { s.Warm[0].G[0] = -1 },
		"warm not ascending": func(s *ShardSnapshot) { s.Warm[0].Raters = []int{9, 2} },
		"warm rater range":   func(s *ShardSnapshot) { s.Warm[0].Raters = []int{2, 15} },
		"warm value length":  func(s *ShardSnapshot) { s.Warm[0].PrevVals = []float64{0.5} },
		"warm NaN value":     func(s *ShardSnapshot) { s.Warm[0].PrevVals[0] = math.NaN() },
		"dense mass length":  func(s *ShardSnapshot) { s.Warm[2].Y = s.Warm[2].Y[:14] },
		"negative steps":     func(s *ShardSnapshot) { s.Warm[2].Steps = -1 },
		"foreign columns": func(s *ShardSnapshot) {
			cols, err := trust.NewColumns(15, []int{0, 3, 6, 9, 12}, make([][]int, 5), make([][]float64, 5))
			if err != nil {
				t.Fatal(err)
			}
			s.Cols = cols
		},
		"bad layout": func(s *ShardSnapshot) { s.Shard = 3 },
		"huge n":     func(s *ShardSnapshot) { s.N = maxShardWireN + 1 },
	}
	for name, mutate := range corrupt {
		seg := codecSegment(t)
		mutate(seg)
		if _, err := LoadShardSnapshot(bytes.NewReader(encodeSegment(t, seg))); err == nil {
			t.Errorf("%s: corrupt segment accepted", name)
		}
	}
	// Column payload corruption Save cannot produce: patch the one column
	// value 0.125 to NaN in the encoded bytes.
	var pat, nan [8]byte
	binary.LittleEndian.PutUint64(pat[:], math.Float64bits(0.125))
	binary.LittleEndian.PutUint64(nan[:], math.Float64bits(math.NaN()))
	if bytes.Count(valid, pat[:]) != 2 { // the column value and warm slot 4's recorded value
		t.Fatalf("test segment layout changed: 0.125 appears %d times", bytes.Count(valid, pat[:]))
	}
	patched := bytes.Replace(valid, pat[:], nan[:], 1)
	if _, err := LoadShardSnapshot(bytes.NewReader(patched)); err == nil {
		t.Error("NaN column value accepted")
	}
	if _, err := LoadShardSnapshot(bytes.NewReader(append(append([]byte{}, valid...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	badVersion := append([]byte{}, valid...)
	badVersion[len(segmentMagic)] = 4
	if _, err := LoadShardSnapshot(bytes.NewReader(badVersion)); err == nil {
		t.Error("unknown version accepted")
	}

	for cut := 0; cut < len(valid); cut++ {
		if _, err := LoadShardSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("segment truncated to %d of %d bytes accepted", cut, len(valid))
		}
	}

	// Global's length prefix follows the magic, version, 14 header words and
	// the Converged byte. Claim 2^20 floats (8 MiB) the input cannot back.
	huge := append([]byte{}, valid...)
	off := len(segmentMagic) + 8 + 14*8 + 1
	if got := binary.LittleEndian.Uint64(huge[off:]); got != 5 {
		t.Fatalf("test offset wrong: Global length prefix reads %d", got)
	}
	binary.LittleEndian.PutUint64(huge[off:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LoadShardSnapshot(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes for a prefix the input cannot back", grew)
	}
}

// withDirSync swaps the directory-fsync seam for one test.
func withDirSync(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	prev := dirSync
	dirSync = fn
	t.Cleanup(func() { dirSync = prev })
}

// TestDirFsyncFailuresCounted: a rejected directory fsync does not fail a
// durable replace — segment or manifest write, or WAL compaction — but each
// one is counted.
func TestDirFsyncFailuresCounted(t *testing.T) {
	withDirSync(t, func(*os.File) error { return os.ErrPermission })
	dir := t.TempDir()

	before := dirFsyncErrors.Value()
	if err := codecSegment(t).SaveFile(filepath.Join(dir, "shard-0001.gob")); err != nil {
		t.Fatalf("segment write failed on a dir-fsync error: %v", err)
	}
	if err := SaveManifestFile(Manifest{N: 15, Shards: 3}, filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest write failed on a dir-fsync error: %v", err)
	}
	if got := dirFsyncErrors.Value() - before; got != 2 {
		t.Fatalf("counted %d dir-fsync failures over two file writes, want 2", got)
	}
	if _, err := LoadShardFile(filepath.Join(dir, "shard-0001.gob")); err != nil {
		t.Fatalf("segment written despite the dir-fsync error does not load: %v", err)
	}

	path := filepath.Join(dir, "ledger.jsonl")
	l := compactSeedLedger(t, path, 40)
	before = dirFsyncErrors.Value()
	if _, err := l.Compact(CompactConfig{FoldedSeq: func(int) uint64 { return 40 }}); err != nil {
		t.Fatalf("compaction failed on a dir-fsync error: %v", err)
	}
	if got := dirFsyncErrors.Value() - before; got != 1 {
		t.Fatalf("compaction counted %d dir-fsync failures, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHintLogRewriteSyncsDirectory: the hint-log rewrite goes through the
// durable replace primitive — it fsyncs the directory (counting a failure
// without failing), leaves no temp file, and keeps appending on the new
// handle.
func TestHintLogRewriteSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hints.jsonl")
	var synced []string
	withDirSync(t, func(d *os.File) error {
		synced = append(synced, d.Name())
		return os.ErrPermission
	})
	hl, _, err := OpenHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hl.Append(testHint("peer-1", 0)); err != nil {
		t.Fatal(err)
	}
	before := dirFsyncErrors.Value()
	if err := hl.Rewrite([]Hint{testHint("peer-1", 1)}); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("rewrite fsynced directories %v, want exactly [%s]", synced, dir)
	}
	if got := dirFsyncErrors.Value() - before; got != 1 {
		t.Fatalf("rewrite counted %d dir-fsync failures, want 1", got)
	}
	if err := hl.Append(testHint("peer-2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := hl.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".hints-*")); len(left) != 0 {
		t.Fatalf("rewrite left temp files: %v", left)
	}
	_, replayed, err := OpenHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Hint{testHint("peer-1", 1), testHint("peer-2", 2)}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed %+v, want %+v", replayed, want)
	}
}
