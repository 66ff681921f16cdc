package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nxgraph/internal/dynamic"
)

// walSegmentSeeds are segment images built from real encodeRecord output:
// intact runs, torn tails, flipped bits and records out of sequence.
func walSegmentSeeds() [][]byte {
	r1, r2, r3 := encodeRecord(1, batch(1, 1)), encodeRecord(2, batch(3, 2)), encodeRecord(3, batch(2, 3))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flip := func(b []byte, at int) []byte {
		b = slices.Clone(b)
		b[at] ^= 0x10
		return b
	}
	whole := cat(r1, r2, r3)
	return [][]byte{
		{},
		r1,
		whole,
		r1[:recHeaderSize-3],                  // torn header
		cat(r1, r2[:len(r2)-5]),               // torn payload
		cat(r1, r2, r3[:recHeaderSize]),       // header with no payload
		flip(whole, len(r1)+recHeaderSize+2),  // a bit of r2's payload: torn at r2
		flip(whole, len(r1)+8),                // r2's length field
		flip(whole, 0),                        // r1's seq: nothing intact
		cat(r1, encodeRecord(3, batch(1, 3))), // a gap in the sequence
		cat(encodeRecord(2, batch(1, 2)), r2), // the segment starts past seq 1
		cat(r1, r2, r3, r1),                   // a repeated record
		cat(r1, flip(r2, len(r2)-1), r3),      // damage before an intact record
	}
}

// replayed is one batch Replay delivered, re-encoded so two replays can
// be compared byte for byte (NaN weights included).
type replayed struct {
	seq uint64
	rec []byte
}

// openReplay opens the log in dir, replays it whole and closes it,
// failing t unless the replayed sequence numbers run 1, 2, 3, ... An
// error is Open's or Replay's.
func openReplay(t *testing.T, dir string, stats *Stats) ([]replayed, error) {
	l, err := Open(dir, Options{Policy: SyncOff, Stats: stats})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var got []replayed
	_, err = l.Replay(0, func(seq uint64, ops []dynamic.Op) error {
		if want := uint64(len(got) + 1); seq != want {
			t.Fatalf("replay delivered seq %d, want %d", seq, want)
		}
		got = append(got, replayed{seq, encodeRecord(seq, ops)})
		return nil
	})
	return got, err
}

// FuzzWALSegment opens a log whose only segment, named for seq 1, holds
// arbitrary bytes. Open must either succeed, keeping exactly the bytes of
// the records Replay then delivers in sequence and truncating the rest,
// or report ErrCorrupt. A checksummed record whose op count disagrees
// with its length — only a writer bug makes one — is left for Replay to
// reject with ErrCorrupt. Opening the truncated log again must replay
// the same batches and find nothing to truncate.
func FuzzWALSegment(f *testing.F) {
	for _, seed := range walSegmentSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := openReplay(t, dir, &Stats{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open and replay: %v, want success or ErrCorrupt", err)
			}
			return
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range first {
			n += len(b.rec)
		}
		if !bytes.Equal(kept, data[:n]) {
			t.Fatalf("open kept %d bytes, want the %d bytes of the %d records replayed", len(kept), n, len(first))
		}
		stats := &Stats{}
		second, err := openReplay(t, dir, stats)
		if err != nil {
			t.Fatalf("reopening the truncated log: %v", err)
		}
		if stats.TornTails.Load() != 0 {
			t.Fatal("the truncated log was truncated again")
		}
		if len(second) != len(first) {
			t.Fatalf("second replay delivered %d batches, first %d", len(second), len(first))
		}
		for i := range first {
			if second[i].seq != first[i].seq || !bytes.Equal(second[i].rec, first[i].rec) {
				t.Fatalf("batch %d differs between replays", i)
			}
		}
	})
}

// FuzzManifest feeds ReadManifest arbitrary MANIFEST bytes. It must not
// panic, and whatever it accepts must survive a WriteManifest →
// ReadManifest round trip unchanged. Seeds are WriteManifest output, its
// truncations and JSON of the wrong shape.
func FuzzManifest(f *testing.F) {
	seed := f.TempDir()
	if err := WriteManifest(seed, Manifest{Generation: 3, LastAppliedSeq: 41}); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(seed, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{
		good,
		good[:len(good)/2],
		good[:1],
		{},
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`{"generation":"3","last_applied_seq":41}`),
		[]byte(`{"generation":-1}`),
		[]byte(`{"last_applied_seq":1.5}`),
		[]byte(`{"last_applied_seq":18446744073709551616}`),
		[]byte(`{"generation":3}{"generation":4}`),
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		again := t.TempDir()
		if err := WriteManifest(again, m); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadManifest(again); err != nil || got != m {
			t.Fatalf("round trip of %+v: %+v, %v", m, got, err)
		}
	})
}
