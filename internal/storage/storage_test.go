package storage

import (
	"math/rand"
	"os"
	"sort"
	"testing"
	"testing/quick"

	"nxgraph/internal/diskio"
)

func randomSubShard(rng *rand.Rand, weighted bool) *SubShard {
	nd := rng.Intn(20)
	ss := &SubShard{Offsets: []uint32{0}}
	dsts := rng.Perm(1000)[:nd]
	sort.Ints(dsts)
	for _, d := range dsts {
		ss.Dsts = append(ss.Dsts, uint32(d))
		cnt := 1 + rng.Intn(5)
		srcs := rng.Perm(1000)[:cnt]
		sort.Ints(srcs)
		for _, s := range srcs {
			ss.Srcs = append(ss.Srcs, uint32(s))
			if weighted {
				ss.Weights = append(ss.Weights, rng.Float32())
			}
		}
		ss.Offsets = append(ss.Offsets, uint32(len(ss.Srcs)))
	}
	return ss
}

func TestSubShardEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64, weighted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ss := randomSubShard(rng, weighted)
		blob := EncodeSubShard(ss, weighted)
		got, err := DecodeSubShard(blob, weighted)
		if err != nil {
			return false
		}
		if got.NumDsts() != ss.NumDsts() || got.NumEdges() != ss.NumEdges() {
			return false
		}
		for k := range ss.Dsts {
			if got.Dsts[k] != ss.Dsts[k] || got.Offsets[k+1] != ss.Offsets[k+1] {
				return false
			}
		}
		for i := range ss.Srcs {
			if got.Srcs[i] != ss.Srcs[i] {
				return false
			}
			if weighted && got.Weights[i] != ss.Weights[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruptBlobs(t *testing.T) {
	ss := randomSubShard(rand.New(rand.NewSource(1)), false)
	blob := EncodeSubShard(ss, false)
	if _, err := DecodeSubShard(blob[:4], false); err == nil {
		t.Fatal("short blob should fail")
	}
	if _, err := DecodeSubShard(blob[:len(blob)-1], false); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if len(blob) > 8 {
		// Decoding an unweighted blob as weighted changes the expected
		// size and must fail.
		if _, err := DecodeSubShard(blob, true); err == nil {
			t.Fatal("weighted/unweighted confusion should fail")
		}
	}
}

func TestAvgInDegree(t *testing.T) {
	ss := &SubShard{
		Dsts:    []uint32{1, 2},
		Offsets: []uint32{0, 3, 4},
		Srcs:    []uint32{0, 1, 2, 0},
	}
	if d := ss.AvgInDegree(); d != 2 {
		t.Fatalf("d = %v, want 2", d)
	}
	empty := &SubShard{Offsets: []uint32{0}}
	if empty.AvgInDegree() != 0 {
		t.Fatal("empty sub-shard d should be 0")
	}
}

func TestMetaIntervals(t *testing.T) {
	m := &Meta{NumVertices: 10, P: 4}
	if m.IntervalSize() != 3 {
		t.Fatalf("size = %d", m.IntervalSize())
	}
	wantLens := []int{3, 3, 3, 1}
	for k, want := range wantLens {
		if m.IntervalLen(k) != want {
			t.Fatalf("len(%d) = %d, want %d", k, m.IntervalLen(k), want)
		}
	}
	if m.IntervalOf(9) != 3 || m.IntervalOf(0) != 0 || m.IntervalOf(3) != 1 {
		t.Fatal("IntervalOf wrong")
	}
}

func TestMetaValidate(t *testing.T) {
	good := Meta{Magic: MetaMagic, Version: DefaultFormatVersion, NumVertices: 4,
		NumEdges: 0, P: 2, SubShards: make([]SubShardInfo, 4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Magic = "nope"
	if bad.Validate() == nil {
		t.Fatal("bad magic accepted")
	}
	bad = good
	bad.Version = 99
	if bad.Validate() == nil {
		t.Fatal("bad version accepted")
	}
	bad = good
	bad.SubShards = bad.SubShards[:3]
	if bad.Validate() == nil {
		t.Fatal("wrong sub-shard count accepted")
	}
	bad = good
	bad.NumEdges = 5
	if bad.Validate() == nil {
		t.Fatal("edge count mismatch accepted")
	}
}

func buildTinyStore(t *testing.T, weighted bool) (*diskio.Disk, *Store) {
	t.Helper()
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	w, err := NewWriter(disk, "st", "tiny", 4, 3, 2, weighted)
	if err != nil {
		t.Fatal(err)
	}
	// SS[0][0]: edge 1->0; SS[0][1]: edge 0->2; SS[1][1]: edge 3->3.
	shards := []*SubShard{
		{Dsts: []uint32{0}, Offsets: []uint32{0, 1}, Srcs: []uint32{1}, Weights: wts(weighted, 1)},
		{Dsts: []uint32{2}, Offsets: []uint32{0, 1}, Srcs: []uint32{0}, Weights: wts(weighted, 2)},
		{Offsets: []uint32{0}},
		{Dsts: []uint32{3}, Offsets: []uint32{0, 1}, Srcs: []uint32{3}, Weights: wts(weighted, 3)},
	}
	for _, ss := range shards {
		if err := w.AppendSubShard(ss); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteDegrees([]uint32{1, 1, 0, 1}, []uint32{1, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteIDMap([]uint64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(disk, "st")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return disk, st
}

func wts(weighted bool, w float32) []float32 {
	if !weighted {
		return nil
	}
	return []float32{w}
}

func TestWriterStoreRoundTrip(t *testing.T) {
	_, st := buildTinyStore(t, true)
	m := st.Meta()
	if m.NumVertices != 4 || m.NumEdges != 3 || m.P != 2 {
		t.Fatalf("meta: %+v", m)
	}
	ss, err := st.ReadSubShard(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumEdges() != 1 || ss.Dsts[0] != 2 || ss.Srcs[0] != 0 || ss.Weights[0] != 2 {
		t.Fatalf("SS[0][1]: %+v", ss)
	}
	empty, err := st.ReadSubShard(1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumEdges() != 0 {
		t.Fatal("SS[1][0] should be empty")
	}
	out, in, err := st.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || in[2] != 1 {
		t.Fatalf("degrees: %v %v", out, in)
	}
	ids, err := st.IDMap()
	if err != nil {
		t.Fatal(err)
	}
	if ids[3] != 40 {
		t.Fatalf("idmap: %v", ids)
	}
	if got := st.SubShardsOfColumn(1, false); len(got) != 2 {
		t.Fatalf("column 1 rows: %v", got)
	}
	if st.EdgeBytesOnDisk(false) <= 0 {
		t.Fatal("edge bytes should be positive")
	}
	if _, err := st.ReadSubShard(5, 0, false); err == nil {
		t.Fatal("out-of-range sub-shard accepted")
	}
	if _, err := st.ReadSubShard(0, 0, true); err == nil {
		t.Fatal("transpose read without replica accepted")
	}
}

func TestWriterOrderEnforcement(t *testing.T) {
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	w, err := NewWriter(disk, "st", "x", 4, 0, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for i := 0; i < 4; i++ {
		if err := w.AppendSubShard(&SubShard{Offsets: []uint32{0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendSubShard(&SubShard{Offsets: []uint32{0}}); err == nil {
		t.Fatal("5th sub-shard for P=2 accepted")
	}
}

func TestAttrStoreRoundTrip(t *testing.T) {
	_, st := buildTinyStore(t, false)
	as, err := st.OpenAttrs()
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	if err := as.WriteAll([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("attrs: %v", got)
	}
	buf := make([]float64, st.Meta().IntervalLen(1))
	if err := as.ReadInterval(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 || buf[1] != 4 {
		t.Fatalf("interval 1: %v", buf)
	}
	buf[0] = 30
	if err := as.WriteInterval(1, buf); err != nil {
		t.Fatal(err)
	}
	got, _ = as.ReadAll()
	if got[2] != 30 {
		t.Fatalf("after write: %v", got)
	}
	if err := as.ReadInterval(0, make([]float64, 1)); err == nil {
		t.Fatal("wrong buffer size accepted")
	}
	if err := as.WriteAll([]float64{1}); err == nil {
		t.Fatal("wrong WriteAll size accepted")
	}
}

func TestHubStoreRoundTrip(t *testing.T) {
	_, st := buildTinyStore(t, false)
	h, err := st.OpenHubs(false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Entries(0, 1) != 1 {
		t.Fatalf("entries(0,1) = %d", h.Entries(0, 1))
	}
	if err := h.Write(0, 1, []uint32{2}, []float64{3.25}); err != nil {
		t.Fatal(err)
	}
	dsts, vals, err := h.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dsts) != 1 || dsts[0] != 2 || vals[0] != 3.25 {
		t.Fatalf("hub: %v %v", dsts, vals)
	}
	// Empty hub region round-trips as nil.
	d2, v2, err := h.Read(1, 0)
	if err != nil || d2 != nil || v2 != nil {
		t.Fatalf("empty hub: %v %v %v", d2, v2, err)
	}
	if err := h.Write(0, 1, []uint32{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("wrong entry count accepted")
	}
}

func TestOpenRejectsCorruptStore(t *testing.T) {
	disk, st := buildTinyStore(t, false)
	st.Close()
	// Corrupt the shard magic.
	path := disk.Path("st/" + ShardsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, "st"); err == nil {
		t.Fatal("corrupt shard magic accepted")
	}
}

func TestOpenRejectsBadMeta(t *testing.T) {
	disk, st := buildTinyStore(t, false)
	st.Close()
	path := disk.Path("st/" + MetaFile)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, "st"); err == nil {
		t.Fatal("unparseable meta accepted")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, "st"); err == nil {
		t.Fatal("missing meta accepted")
	}
}

func TestVerifyAcceptsGoodStore(t *testing.T) {
	_, st := buildTinyStore(t, false)
	if err := Verify(st); err != nil {
		t.Fatal(err)
	}
}
