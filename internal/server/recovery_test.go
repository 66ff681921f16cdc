package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	nxgraph "nxgraph"
	"nxgraph/internal/graph"
	"nxgraph/internal/wal"
)

// buildRecoveryBaseDir writes a 6-vertex ring-with-chords graph, with
// transpose (WCC needs it) and literal 0..5 ids.
func buildRecoveryBaseDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g := &graph.EdgeList{NumVertices: 6}
	for _, e := range [][2]uint32{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, // ring
		{1, 3}, {2, 4}, // chords
	} {
		g.Edges = append(g.Edges, graph.Edge{Src: e[0], Dst: e[1], Weight: 1})
	}
	gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 2, Transpose: true})
	if err != nil {
		t.Fatal(err)
	}
	gr.Close()
	return dir
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// recoveryConfig forces tiny WAL segments so a handful of batches spans
// several files, exercising rotation, GC and multi-segment replay.
func recoveryConfig() Config {
	return Config{Workers: 1, WALSegmentBytes: 128}
}

// openRecoveryServer opens dir as graph "g" on a fresh server. Threads
// is pinned to 1 so float accumulation order — and therefore the
// bitwise result fingerprint — is deterministic across runs.
func openRecoveryServer(t *testing.T, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	s := New(recoveryConfig())
	if err := s.OpenGraph("g", dir, nxgraph.Options{Threads: 1}); err != nil {
		s.Close()
		t.Fatalf("open %s: %v", dir, err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() { ts.Close(); s.Close() }
}

// recoveryBatches is the ingestion history the crash matrix replays.
// The final batch is exactly 2 ops so its WAL record size is known
// (16-byte header + 4-byte count + 2×21-byte ops = 62 bytes) and the
// pre-fsync crash state can drop precisely that record.
var recoveryBatches = []map[string]any{
	{"add": []map[string]any{{"src": 0, "dst": 3}, {"src": 2, "dst": 5}}},
	{"remove": []map[string]any{{"src": 1, "dst": 2}},
		"add": []map[string]any{{"src": 1, "dst": 4}}},
	{"add": []map[string]any{{"src": 5, "dst": 1}, {"src": 3, "dst": 0}, {"src": 4, "dst": 2}}},
	{"add": []map[string]any{{"src": 2, "dst": 0}},
		"remove": []map[string]any{{"src": 2, "dst": 4}}},
}

const lastRecoveryRecordBytes = 62

func postBatches(t *testing.T, ts *httptest.Server, batches []map[string]any) {
	t.Helper()
	for i, b := range batches {
		if code, body := doJSON(t, "POST", ts.URL+"/v1/graphs/g/edges", b); code != http.StatusAccepted {
			t.Fatalf("ingest batch %d: status %d, body %v", i, code, body)
		}
	}
}

// fingerprint is the bitwise query identity of a served graph state:
// PageRank and WCC values straight off the result endpoint. Go's JSON
// encoding of float64 round-trips exactly, so []float64 equality here
// is bit equality of the engine outputs.
type fingerprint struct {
	pagerank []float64
	wcc      []float64
}

func algoValues(t *testing.T, ts *httptest.Server, algo string, params map[string]any) []float64 {
	t.Helper()
	id := submit(t, ts, "g", algo, params)
	if body := pollUntil(t, ts, id, terminal); body["state"] != "done" {
		t.Fatalf("%s ended %v (error %v)", algo, body["state"], body["error"])
	}
	code, res := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("%s result: status %d, body %v", algo, code, res)
	}
	raw, _ := res["values"].([]any)
	vals := make([]float64, len(raw))
	for i, v := range raw {
		vals[i], _ = v.(float64)
	}
	return vals
}

func takeFingerprint(t *testing.T, ts *httptest.Server) fingerprint {
	t.Helper()
	return fingerprint{
		pagerank: algoValues(t, ts, "pagerank", map[string]any{"iters": 20}),
		wcc:      algoValues(t, ts, "wcc", nil),
	}
}

// fingerprintDir opens dir cleanly and queries it — the never-crashed
// reference every recovered state must match bitwise.
func fingerprintDir(t *testing.T, dir string) fingerprint {
	t.Helper()
	_, ts, closeAll := openRecoveryServer(t, dir)
	defer closeAll()
	return takeFingerprint(t, ts)
}

// tailSegment returns the path of the last (active) WAL segment.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	sort.Strings(segs)
	return filepath.Join(dir, walDirName, segs[len(segs)-1])
}

// TestCrashRecoveryMatrix constructs the on-disk state a crash leaves
// at each kill point of the ingest and compaction paths, reopens it,
// and requires the recovered graph's PageRank and WCC outputs to be
// bitwise equal to a never-crashed reference serving the batches that
// should have survived.
func TestCrashRecoveryMatrix(t *testing.T) {
	base := buildRecoveryBaseDir(t)

	// dirA: every batch ingested and durable, never compacted.
	dirA := t.TempDir()
	copyTree(t, base, dirA)
	{
		_, ts, closeAll := openRecoveryServer(t, dirA)
		postBatches(t, ts, recoveryBatches)
		closeAll()
	}

	// dirB: dirA after a completed compaction (new store generation,
	// MANIFEST, WAL garbage-collected).
	dirB := t.TempDir()
	copyTree(t, dirA, dirB)
	{
		_, ts, closeAll := openRecoveryServer(t, dirB)
		code, snap := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
		if code != http.StatusAccepted {
			t.Fatalf("compact: status %d, body %v", code, snap)
		}
		if end := pollUntil(t, ts, snap["id"].(string), terminal); end["state"] != "done" {
			t.Fatalf("compaction ended %v (error %v)", end["state"], end["error"])
		}
		closeAll()
	}

	expectAll := fingerprintDir(t, cloneDir(t, dirA))
	expectCompacted := fingerprintDir(t, cloneDir(t, dirB))
	// Reference for the pre-fsync crash: a server that only ever saw
	// the first three batches.
	var expectAllButLast fingerprint
	{
		dir := cloneDir(t, base)
		_, ts, closeAll := openRecoveryServer(t, dir)
		postBatches(t, ts, recoveryBatches[:3])
		expectAllButLast = takeFingerprint(t, ts)
		closeAll()
	}
	if reflect.DeepEqual(expectAll, expectAllButLast) {
		t.Fatal("last batch does not change query results; matrix cannot distinguish losing it")
	}

	cases := []struct {
		name string
		from string // which master dir the crash state starts from
		prep func(t *testing.T, dir string)
		want fingerprint
	}{
		{
			// Crash mid-append: the tail carries a torn half-written
			// record. Reopen truncates it; every acked batch survives.
			name: "mid-append torn tail",
			from: "A",
			prep: func(t *testing.T, dir string) {
				f, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			want: expectAll,
		},
		{
			// Crash after write but before fsync: the OS lost the final
			// record, and the client never got its ack (responses are
			// written after the fsync). Recovery serves everything else.
			name: "pre-fsync lost record",
			from: "A",
			prep: func(t *testing.T, dir string) {
				seg := tailSegment(t, dir)
				st, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if st.Size() < lastRecoveryRecordBytes {
					t.Fatalf("tail segment only %d bytes", st.Size())
				}
				if err := os.Truncate(seg, st.Size()-lastRecoveryRecordBytes); err != nil {
					t.Fatal(err)
				}
			},
			want: expectAllButLast,
		},
		{
			// Crash after fsync but before the ack reached the client:
			// the batch is durable, so replay must surface it anyway.
			name: "post-fsync pre-ack",
			from: "A",
			prep: func(t *testing.T, dir string) {},
			want: expectAll,
		},
		{
			// Crash mid-rebuild: a half-built dsss.compact with no swap
			// started. The sweep discards it; the old store plus full
			// WAL replay serves everything.
			name: "mid-rebuild litter",
			from: "A",
			prep: func(t *testing.T, dir string) {
				junk := filepath.Join(dir, compactDirName)
				if err := os.MkdirAll(junk, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(junk, "partial.bin"), []byte("junk"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: expectAll,
		},
		{
			// Crash between the two swap renames: dsss is gone, the old
			// store sits at dsss.prev and the complete rebuild (with its
			// MANIFEST) at dsss.compact. The sweep rolls forward and the
			// manifest stops replay from double-applying folded batches.
			name: "mid-swap between renames",
			from: "A",
			prep: func(t *testing.T, dir string) {
				if err := os.Rename(filepath.Join(dir, storeDirName), filepath.Join(dir, compactPrevName)); err != nil {
					t.Fatal(err)
				}
				copyTree(t, filepath.Join(dirB, storeDirName), filepath.Join(dir, compactDirName))
			},
			want: expectCompacted,
		},
		{
			// Crash after the swap published the new store but before
			// the old one was deleted: dsss.prev litter plus a WAL not
			// yet garbage-collected. Sweep removes the litter; replay
			// dedups the folded batches.
			name: "mid-swap before prev removal",
			from: "B",
			prep: func(t *testing.T, dir string) {
				copyTree(t, filepath.Join(dirA, storeDirName), filepath.Join(dir, compactPrevName))
				if err := os.RemoveAll(filepath.Join(dir, walDirName)); err != nil {
					t.Fatal(err)
				}
				copyTree(t, filepath.Join(dirA, walDirName), filepath.Join(dir, walDirName))
			},
			want: expectCompacted,
		},
		{
			// Crash mid-GC: the new store is live but stale WAL segments
			// survived. Replay skips every batch the manifest covers.
			name: "mid-gc stale segments",
			from: "B",
			prep: func(t *testing.T, dir string) {
				if err := os.RemoveAll(filepath.Join(dir, walDirName)); err != nil {
					t.Fatal(err)
				}
				copyTree(t, filepath.Join(dirA, walDirName), filepath.Join(dir, walDirName))
			},
			want: expectCompacted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := dirA
			if tc.from == "B" {
				master = dirB
			}
			dir := cloneDir(t, master)
			tc.prep(t, dir)
			got := fingerprintDir(t, dir)
			if !reflect.DeepEqual(got.pagerank, tc.want.pagerank) {
				t.Errorf("pagerank diverged after recovery:\n got %v\nwant %v", got.pagerank, tc.want.pagerank)
			}
			if !reflect.DeepEqual(got.wcc, tc.want.wcc) {
				t.Errorf("wcc diverged after recovery:\n got %v\nwant %v", got.wcc, tc.want.wcc)
			}
		})
	}
}

func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyTree(t, src, dst)
	return dst
}

// TestRecoveryTornTailMetric: reopening a log with a torn tail surfaces
// it on /metrics, and ingestion keeps working afterwards.
func TestRecoveryTornTailMetric(t *testing.T) {
	base := buildRecoveryBaseDir(t)
	dir := cloneDir(t, base)
	{
		_, ts, closeAll := openRecoveryServer(t, dir)
		postBatches(t, ts, recoveryBatches[:1])
		closeAll()
	}
	f, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts, closeAll := openRecoveryServer(t, dir)
	defer closeAll()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"nxserve_wal_torn_tails_total 1",
		"nxserve_wal_replayed_batches_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	postBatches(t, ts, recoveryBatches[1:2]) // log still accepts appends
}

// TestWALResumesPastManifest: a store whose MANIFEST is ahead of its
// whole WAL — moved or restored without its wal/ directory, or beside an
// older one — must not give acked batches sequences the next replay
// skips as already folded in. Every batch acked after such a reopen
// survives the next two restarts.
func TestWALResumesPastManifest(t *testing.T) {
	// compacted: two batches ingested and folded, so its MANIFEST
	// records seq 2; staleWAL: the wal/ directory after the first batch.
	compacted := cloneDir(t, buildRecoveryBaseDir(t))
	staleWAL := t.TempDir()
	{
		_, ts, closeAll := openRecoveryServer(t, compacted)
		postBatches(t, ts, recoveryBatches[:1])
		closeAll()
	}
	copyTree(t, filepath.Join(compacted, walDirName), staleWAL)
	{
		_, ts, closeAll := openRecoveryServer(t, compacted)
		postBatches(t, ts, recoveryBatches[1:2])
		code, snap := doJSON(t, "POST", ts.URL+"/v1/graphs/g/compact", nil)
		if code != http.StatusAccepted {
			t.Fatalf("compact: status %d, body %v", code, snap)
		}
		if end := pollUntil(t, ts, snap["id"].(string), terminal); end["state"] != "done" {
			t.Fatalf("compaction ended %v (error %v)", end["state"], end["error"])
		}
		closeAll()
	}
	if m, err := wal.ReadManifest(filepath.Join(compacted, storeDirName)); err != nil || m.LastAppliedSeq != 2 {
		t.Fatalf("manifest %+v, %v; want last_applied_seq 2", m, err)
	}
	pending := func(ts *httptest.Server) float64 {
		t.Helper()
		_, info := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil)
		pd, _ := info["pending_deltas"].(float64)
		return pd
	}

	for name, walDir := range map[string]string{"wal deleted": "", "stale wal": staleWAL} {
		t.Run(name, func(t *testing.T) {
			dir := cloneDir(t, compacted)
			if err := os.RemoveAll(filepath.Join(dir, walDirName)); err != nil {
				t.Fatal(err)
			}
			if walDir != "" {
				copyTree(t, walDir, filepath.Join(dir, walDirName))
			}
			// Batch 3 has 3 ops, batch 4 has 2: each reopen must still
			// serve every op acked before it.
			want := 0.0
			for _, b := range recoveryBatches[2:4] {
				_, ts, closeAll := openRecoveryServer(t, dir)
				if got := pending(ts); got != want {
					closeAll()
					t.Fatalf("pending after reopen = %v, want %v", got, want)
				}
				postBatches(t, ts, []map[string]any{b})
				want = pending(ts)
				closeAll()
			}
			_, ts, closeAll := openRecoveryServer(t, dir)
			defer closeAll()
			if got := pending(ts); got != 5 || want != 5 {
				t.Fatalf("pending after the last reopen = %v (acked %v), want 5", got, want)
			}
		})
	}
}

// TestSweepStaleStoreDirs drives the three crash states the sweep
// repairs, plus the clean fast path.
func TestSweepStaleStoreDirs(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	mk := func(t *testing.T, dir, sub, marker string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, marker), []byte(marker), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }

	t.Run("litter removed around live store", func(t *testing.T) {
		dir := t.TempDir()
		mk(t, dir, storeDirName, "live")
		mk(t, dir, compactPrevName, "old")
		mk(t, dir, compactDirName, "half")
		if err := sweepStaleStoreDirs(dir, log); err != nil {
			t.Fatal(err)
		}
		if !exists(filepath.Join(dir, storeDirName, "live")) {
			t.Fatal("live store touched")
		}
		if exists(filepath.Join(dir, compactPrevName)) || exists(filepath.Join(dir, compactDirName)) {
			t.Fatal("litter survived the sweep")
		}
	})
	t.Run("roll forward", func(t *testing.T) {
		dir := t.TempDir()
		mk(t, dir, compactPrevName, "old")
		mk(t, dir, compactDirName, "rebuilt")
		if err := sweepStaleStoreDirs(dir, log); err != nil {
			t.Fatal(err)
		}
		if !exists(filepath.Join(dir, storeDirName, "rebuilt")) {
			t.Fatal("rebuilt store not promoted")
		}
		if exists(filepath.Join(dir, compactPrevName)) || exists(filepath.Join(dir, compactDirName)) {
			t.Fatal("swap leftovers survived")
		}
	})
	t.Run("roll back", func(t *testing.T) {
		dir := t.TempDir()
		mk(t, dir, compactPrevName, "old")
		if err := sweepStaleStoreDirs(dir, log); err != nil {
			t.Fatal(err)
		}
		if !exists(filepath.Join(dir, storeDirName, "old")) {
			t.Fatal("old store not restored")
		}
		if exists(filepath.Join(dir, compactPrevName)) {
			t.Fatal("prev dir survived the rollback")
		}
	})
	t.Run("clean dir untouched", func(t *testing.T) {
		dir := t.TempDir()
		mk(t, dir, storeDirName, "live")
		if err := sweepStaleStoreDirs(dir, log); err != nil {
			t.Fatal(err)
		}
		if !exists(filepath.Join(dir, storeDirName, "live")) {
			t.Fatal("live store touched")
		}
	})
}
