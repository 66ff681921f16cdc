package storage

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"nxgraph/internal/diskio"
)

// writeTransposedStore writes buildTinyStore's graph (edges 1->0, 0->2,
// 3->3 over P = 2) with its transposed replica to dir on disk.
func writeTransposedStore(tb testing.TB, disk *diskio.Disk, dir string) {
	tb.Helper()
	w, err := NewWriter(disk, dir, "tiny", 4, 3, 2, false)
	if err != nil {
		tb.Fatal(err)
	}
	one := func(d, s uint32) *SubShard {
		return &SubShard{Dsts: []uint32{d}, Offsets: []uint32{0, 1}, Srcs: []uint32{s}}
	}
	empty := &SubShard{Offsets: []uint32{0}}
	appendAll := func(set ...*SubShard) {
		for _, ss := range set {
			if err := w.AppendSubShard(ss); err != nil {
				tb.Fatal(err)
			}
		}
	}
	appendAll(one(0, 1), one(2, 0), empty, one(3, 3))
	if err := w.BeginTranspose(); err != nil {
		tb.Fatal(err)
	}
	appendAll(one(1, 0), empty, one(0, 2), one(3, 3))
	if err := w.WriteDegrees([]uint32{1, 1, 0, 1}, []uint32{1, 0, 1, 1}); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteIDMap([]uint64{10, 20, 30, 40}); err != nil {
		tb.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
}

// editMeta returns the meta.json raw with edit applied.
func editMeta(tb testing.TB, raw []byte, edit func(m *Meta)) []byte {
	tb.Helper()
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		tb.Fatal(err)
	}
	edit(&m)
	raw, err := json.Marshal(&m)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestOpenRejectsBadIndex edits one field of a good store's meta.json
// per case. Each edit used to open cleanly and then crash the first
// read (a negative blob length panics in make, P = 2^32 divides by zero
// in IntervalSize), or to read past the shard file; now Open fails and
// names the entry.
func TestOpenRejectsBadIndex(t *testing.T) {
	cases := []struct {
		name string
		edit func(m *Meta)
		want string
	}{
		{"negative length", func(m *Meta) { m.SubShards[1].Length = -1 }, "sub_shards[1]"},
		{"negative offset", func(m *Meta) { m.TSubShards[3].Offset = -8 }, "t_sub_shards[3]"},
		{"P squared overflows", func(m *Meta) {
			m.P, m.SubShards, m.HasTranspose, m.TSubShards, m.NumEdges = 1<<32, nil, false, nil, 0
		}, "P 4294967296"},
		{"more destinations than edges", func(m *Meta) { m.SubShards[0].Dsts = 2 }, "sub_shards[0]"},
		{"negative destinations", func(m *Meta) { m.TSubShards[0].Dsts = -1 }, "t_sub_shards[0]"},
		{"blob without destinations", func(m *Meta) { m.SubShards[3].Dsts = 0 }, "sub_shards[3]"},
		{"destinations without blob", func(m *Meta) {
			m.SubShards[2].Dsts, m.SubShards[2].Edges = 1, 1
			m.NumEdges++
		}, "sub_shards[2]"},
		{"transposed edge sum", func(m *Meta) { m.TSubShards[0].Edges = 2 }, "t_sub_shards hold 4 edges"},
		{"blob past the file", func(m *Meta) { m.SubShards[3].Length += 1000 }, "sub_shards[3]"},
		{"offset past the file", func(m *Meta) { m.TSubShards[2].Offset = 1 << 40 }, "t_sub_shards[2]"},
		{"offset plus length overflows", func(m *Meta) { m.SubShards[0].Length = math.MaxInt64 }, "sub_shards[0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			disk := diskio.MustNew(t.TempDir(), diskio.Unthrottled)
			writeTransposedStore(t, disk, "st")
			path := disk.Path("st/" + MetaFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, editMeta(t, raw, c.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(disk, "st")
			if err == nil {
				st.Close()
				t.Fatalf("opened; want an error naming %s", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
}

// FuzzMeta parses arbitrary meta.json bytes: Unmarshal and Validate
// never panic, and a meta that validates answers the interval and
// sub-shard lookups at their corner indices.
func FuzzMeta(f *testing.F) {
	disk := diskio.MustNew(f.TempDir(), diskio.Unthrottled)
	writeTransposedStore(f, disk, "st")
	good, err := os.ReadFile(disk.Path("st/" + MetaFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, cut := range []int{0, 1, len(good) / 3, len(good) / 2, len(good) - 2} {
		f.Add(good[:cut])
	}
	f.Add(editMeta(f, good, func(m *Meta) { m.SubShards[1].Length = -1 }))
	f.Add([]byte(`{"magic":"NXGRAPH-DSSS","version":2,"num_vertices":4,"p":4294967296,"sub_shards":[],"num_edges":0}`))
	f.Add([]byte(`{"magic":"NXGRAPH-DSSS","version":2,"num_vertices":4294967295,"p":2,"sub_shards":[{},{},{},{}],"num_edges":0}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m Meta
		if json.Unmarshal(raw, &m) != nil || m.Validate() != nil {
			return
		}
		last := m.P - 1
		if m.IntervalSize() == 0 && m.NumVertices > 0 {
			t.Fatalf("interval size 0 for %d vertices over P = %d", m.NumVertices, m.P)
		}
		for _, k := range []int{0, last} {
			if lo, hi := m.IntervalRange(k); lo > hi || hi > m.NumVertices {
				t.Fatalf("interval %d of P = %d: [%d, %d) outside %d vertices", k, m.P, lo, hi, m.NumVertices)
			}
			for _, j := range []int{0, last} {
				m.SubShardAt(k, j)
			}
		}
		if m.NumVertices > 0 {
			if k := m.IntervalOf(m.NumVertices - 1); k < 0 || k > last {
				t.Fatalf("vertex %d in interval %d of P = %d", m.NumVertices-1, k, m.P)
			}
		}
	})
}
