package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	nxgraph "nxgraph"
)

// buildStore writes a forward-only store of a 64-vertex ring with chords.
func buildStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	g := &nxgraph.EdgeList{NumVertices: 64}
	for v := uint32(0); v < 64; v++ {
		g.Edges = append(g.Edges, nxgraph.Edge{Src: v, Dst: (v + 1) % 64}, nxgraph.Edge{Src: v, Dst: (v * 7) % 64})
	}
	gr, err := nxgraph.Build(dir, g, nxgraph.Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFailedRunFlushesProfiles: a run that fails (SCC needs the
// transposed replica this store lacks) exits 1 after its deferred
// cleanups, so the CPU and heap profiles it was asked for are written.
func TestFailedRunFlushesProfiles(t *testing.T) {
	store := buildStore(t)
	cpu, heap := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-store", store, "-algo", "scc", "-cpuprofile", cpu, "-memprofile", heap}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "Transpose") {
		t.Fatalf("exit %d, stderr %q; want 1 and the transpose error", code, stderr.String())
	}
	for _, p := range []string{cpu, heap} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
}

// TestRootOutOfRange: a root past the 32-bit id space is a usage error,
// not a BFS from the root's low 32 bits; a root inside it runs.
func TestRootOutOfRange(t *testing.T) {
	store := buildStore(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-store", store, "-algo", "bfs", "-root", "4294967301"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-root 4294967301: exit %d, stderr %q; want 2", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("-root 4294967301 ran: %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-store", store, "-algo", "bfs", "-root", "5"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "reached 64/64 vertices") {
		t.Fatalf("-root 5: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
