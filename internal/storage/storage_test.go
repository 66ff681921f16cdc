package storage

import (
	"os"
	"strings"
	"testing"

	"nxgraph/internal/diskio"
)

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
	good := Meta{Magic: MetaMagic, Version: FormatV2, NumVertices: 4,
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
	as, err := st.CreateAttrs(1)
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()
	for k, vals := range [][]float64{{1, 2}, {3, 4}} {
		if err := as.WriteInterval(k, vals); err != nil {
			t.Fatal(err)
		}
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
	for k, want := range [][]float64{{1, 2}, {30, 4}} {
		got := make([]float64, 2)
		if err := as.ReadInterval(k, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("interval %d after write: %v, want %v", k, got, want)
		}
	}
	if err := as.ReadInterval(0, make([]float64, 1)); err == nil {
		t.Fatal("wrong buffer size accepted")
	}
	if err := as.WriteInterval(0, make([]float64, 3)); err == nil {
		t.Fatal("wrong buffer size accepted on write")
	}
	// A second attribute file is the second run's own.
	other, err := st.CreateAttrs(1)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.ReadInterval(1, buf); err == nil {
		t.Fatal("a fresh attribute file read another run's interval")
	}
	// A run of two lanes keeps two lane-minor values per vertex.
	wide, err := st.CreateAttrs(2)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	for k, vals := range [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}} {
		if err := wide.WriteInterval(k, vals); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, 4)
	if err := wide.ReadInterval(1, got); err != nil || got[0] != 5 || got[3] != 8 {
		t.Fatalf("two-lane interval 1: %v, %v", got, err)
	}
	if err := wide.WriteInterval(0, []float64{1, 2}); err == nil {
		t.Fatal("one lane's values accepted by a two-lane file")
	}
}

func TestHubStoreRoundTrip(t *testing.T) {
	_, st := buildTinyStore(t, false)
	h, err := st.CreateHubs(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
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
	if _, err := st.CreateHubs(true, 1); err == nil {
		t.Fatal("transposed hubs without a transpose replica accepted")
	}
	// A hub of three lanes holds three lane-minor partials per entry.
	h3, err := st.CreateHubs(false, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()
	if err := h3.Write(0, 1, []uint32{2}, []float64{1.5, 2.5, 3.5}); err != nil {
		t.Fatal(err)
	}
	dsts, vals, err = h3.Read(0, 1)
	if err != nil || len(dsts) != 1 || dsts[0] != 2 || len(vals) != 3 || vals[0] != 1.5 || vals[2] != 3.5 {
		t.Fatalf("three-lane hub: %v %v %v", dsts, vals, err)
	}
	if err := h3.Write(0, 1, []uint32{2}, []float64{1}); err == nil {
		t.Fatal("one lane's partial accepted by a three-lane hub")
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

// TestCompressionRatio checks the accounting helper on both replicas of
// the tiny transposed store: six one-edge blobs, each 5 v2 bytes (two
// counts, a destination, a source count, a source) against 20 fixed-width
// bytes (two uint32 counts, one destination id and count, one source).
func TestCompressionRatio(t *testing.T) {
	disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
	writeTransposedStore(t, disk, "st")
	st, err := Open(disk, "st")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if enc, fixed := st.CompressionRatio(); enc != 6*5 || fixed != 6*20 {
		t.Fatalf("encoded %d, fixed-width %d; want 30 and 120", enc, fixed)
	}
}

// TestOpenRejectsMixedShardVersion corrupts the shard header version so
// it disagrees with meta.json.
func TestOpenRejectsMixedShardVersion(t *testing.T) {
	disk, st := buildTinyStore(t, false)
	st.Close()
	path := disk.Path("st/" + ShardsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = 1 // header says v1, meta says v2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(disk, "st")
	if err == nil {
		t.Fatal("mixed-version store accepted")
	}
	if !strings.Contains(err.Error(), ShardsFile) || !strings.Contains(err.Error(), "meta.json says 2") {
		t.Fatalf("unhelpful mixed-version error: %v", err)
	}
}

// TestVerifyCatchesCorruption moves the source id of SS[0][0]'s one edge
// out of its source interval: the blob still decodes, and Verify must
// reject it.
func TestVerifyCatchesCorruption(t *testing.T) {
	disk, st := buildTinyStore(t, false)
	st.Close()
	info := st.Meta().SubShardAt(0, 0)
	path := disk.Path("st/" + ShardsFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The blob's last byte is its one source, 1; 127 is past interval 0.
	raw[info.Offset+info.Length-1] = 0x7f
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(disk, "st")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ss, err := st2.ReadSubShard(0, 0, false); err != nil || ss.Srcs[0] != 127 {
		t.Fatalf("corrupted SS[0][0] decodes to %+v, %v; want source 127", ss, err)
	}
	if err := Verify(st2); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("verify accepted a source outside its interval: %v", err)
	}
}
