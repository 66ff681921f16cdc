package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nxgraph/internal/dynamic"
)

// Record layout (all little-endian):
//
//	seq     uint64  batch sequence number, contiguous from 1
//	length  uint32  payload bytes
//	crc     uint32  CRC32C over seq, length and the payload
//	payload         count uint32, then per op:
//	                flags u8 (bit0 = remove), src u64, dst u64,
//	                weight u32 (float32 bits)
//
// Segments are files named %020d.wal after their first record's seq,
// so the sorted directory listing is the log order and the replay start
// point locates its segment without reading headers.
const (
	recHeaderSize = 16
	opSize        = 21
	segSuffix     = ".wal"

	// maxPayload rejects absurd length fields when scanning: a header
	// claiming more is treated as a torn/corrupt record, not an
	// allocation request.
	maxPayload = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by Append after Close.
	ErrClosed = errors.New("wal: log closed")
	// ErrFailed marks a poisoned log: a segment write or sync failed,
	// so the on-disk tail may be torn and no further appends are
	// accepted. Recovery is reopening the log (restart), which
	// truncates the torn tail. Returned errors wrap the root cause.
	ErrFailed = errors.New("wal: log failed")
	// ErrCorrupt marks an unreadable record *before* the end of the
	// log — unlike a torn final record, this is not explainable by a
	// crash mid-append and is never repaired silently.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// SyncPolicy selects when appends are fsynced.
type SyncPolicy int

const (
	// SyncBatch (default) groups commits: the committer coalesces every
	// append that queued while the previous fsync ran into one write
	// pass and one fsync.
	SyncBatch SyncPolicy = iota
	// SyncOff never fsyncs: appends are acked once written to the OS.
	// Data survives a process crash but not a kernel crash or power
	// loss.
	SyncOff
)

// ParseSyncPolicy parses the -fsync flag values off|batch.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want off or batch)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncOff {
		return "off"
	}
	return "batch"
}

// Stats holds the log's monotonic counters, shared with /metrics.
type Stats struct {
	Appends         atomic.Int64 // durably acked batches
	Fsyncs          atomic.Int64
	ReplayedBatches atomic.Int64
	TornTails       atomic.Int64 // torn final records truncated at open
}

// Options tunes a Log.
type Options struct {
	// FS is the file layer (OSFS{} if nil) — tests inject FaultFS.
	FS FS
	// Policy is the fsync policy (default SyncBatch).
	Policy SyncPolicy
	// SegmentBytes rolls to a new segment once the current one reaches
	// this size (default 64 MiB).
	SegmentBytes int64
	// Commit, if set, is invoked by the committer for each batch in
	// sequence order after it is durable and before its Append returns
	// — the hook that makes batches visible (DeltaLog append) in
	// exactly the order replay would re-apply them. An error fails that
	// Append but does not poison the log.
	Commit func(seq uint64, ops []dynamic.Op) error
	// ObserveFsync, if set, receives each fsync's duration.
	ObserveFsync func(time.Duration)
	// Stats receives the log's counters (private Stats if nil).
	Stats *Stats
}

// Log is a write-ahead log of dynamic.Op batches. Appends are safe for
// concurrent use; a single committer goroutine orders, writes and syncs
// them (group commit).
type Log struct {
	dir string
	fs  FS
	opt Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*appendReq
	nextSeq uint64
	segs    []segInfo
	failed  error
	closed  bool

	// Committer-owned (no lock): the open tail segment.
	curFile File
	curSize int64

	wg sync.WaitGroup
}

type segInfo struct {
	name  string
	first uint64 // first seq the segment holds (from its name)
}

type appendReq struct {
	seq  uint64
	ops  []dynamic.Op
	rec  []byte
	done chan error
}

func segName(firstSeq uint64) string { return fmt.Sprintf("%020d%s", firstSeq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
	return n, err == nil
}

// Open opens (creating if needed) the log at dir, scans every segment,
// truncates a torn final record if the last crash left one, and starts
// the committer. The first assignable sequence is one past the highest
// intact record.
func Open(dir string, opt Options) (*Log, error) {
	if opt.FS == nil {
		opt.FS = OSFS{}
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	if opt.Stats == nil {
		opt.Stats = &Stats{}
	}
	l := &Log{dir: dir, fs: opt.FS, opt: opt, nextSeq: 1}
	l.cond = sync.NewCond(&l.mu)

	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	names, err := l.fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			l.segs = append(l.segs, segInfo{name: name, first: first})
		}
	}
	var tailBytes int64 // intact bytes of the last segment scanned
	seenRecords := false
	for i, s := range l.segs {
		path := filepath.Join(dir, s.name)
		// Within a segment, records run contiguously from the sequence
		// its name declares; across segments they continue without
		// gaps. (The log's prefix may be GC'd away, so the *first*
		// segment can start anywhere.)
		if seenRecords && s.first != l.nextSeq {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, path, s.first, l.nextSeq)
		}
		sc, err := l.scanSegment(path, s.first, nil)
		if err != nil {
			return nil, err
		}
		if sc.torn {
			if i != len(l.segs)-1 {
				return nil, fmt.Errorf("%w: segment %s damaged at offset %d but is not the log tail", ErrCorrupt, path, sc.goodBytes)
			}
			// A torn tail is the legal crash signature: the final
			// record never completed, so its batch was never acked.
			// Drop it.
			if err := l.fs.Truncate(path, sc.goodBytes); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			opt.Stats.TornTails.Add(1)
		}
		if sc.next > s.first {
			l.nextSeq, seenRecords = sc.next, true
		}
		tailBytes = sc.goodBytes
	}
	if n := len(l.segs); n > 0 {
		// An empty trailing segment (created, then crash before its
		// first record) still names the next sequence to be written.
		if first := l.segs[n-1].first; first > l.nextSeq {
			l.nextSeq = first
		}
		f, err := l.fs.OpenAppend(filepath.Join(dir, l.segs[n-1].name))
		if err != nil {
			return nil, fmt.Errorf("wal: reopen tail segment: %w", err)
		}
		l.curFile = f
		l.curSize = tailBytes // the scan's intact bytes: the post-truncate size
	}
	l.wg.Add(1)
	go l.committer()
	return l, nil
}

type segScan struct {
	next      uint64 // seq the record after the last intact one must carry
	goodBytes int64  // offset past the last intact record
	torn      bool   // trailing bytes do not form an intact record
}

// scanSegment walks one segment's records, verifying checksums and the
// contiguity of sequence numbers (from first on, one apart), and
// hands each intact record's payload to visit (if set); an error from
// visit stops the scan. It is the log's one record reader: Open scans
// with no visitor, Replay with one that decodes. Anything unreadable
// marks the scan torn at the last good offset; the caller decides
// whether that is a legal crash tail or corruption.
func (l *Log) scanSegment(path string, first uint64, visit func(seq uint64, payload []byte) error) (segScan, error) {
	rf, err := l.fs.OpenRead(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	defer rf.Close()
	size, err := rf.Size()
	if err != nil {
		return segScan{}, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	sc := segScan{next: first}
	br := bufio.NewReaderSize(rf, 1<<16)
	hdr := make([]byte, recHeaderSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err != io.EOF {
				sc.torn = true
			}
			return sc, nil
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		length := binary.LittleEndian.Uint32(hdr[8:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		// A length running past the end of the file is a torn record,
		// not an allocation request.
		if length < 4 || length > maxPayload || (length-4)%opSize != 0 || sc.goodBytes+recHeaderSize+int64(length) > size {
			sc.torn = true
			return sc, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			sc.torn = true
			return sc, nil
		}
		sum := crc32.Checksum(hdr[0:12], castagnoli)
		sum = crc32.Update(sum, castagnoli, payload)
		if sum != crc {
			sc.torn = true
			return sc, nil
		}
		if seq != sc.next {
			return sc, fmt.Errorf("%w: %s holds seq %d where %d was expected", ErrCorrupt, path, seq, sc.next)
		}
		if visit != nil {
			if err := visit(seq, payload); err != nil {
				return sc, err
			}
		}
		sc.next++
		sc.goodBytes += int64(recHeaderSize) + int64(length)
	}
}

func encodeRecord(seq uint64, ops []dynamic.Op) []byte {
	payload := 4 + len(ops)*opSize
	buf := make([]byte, recHeaderSize+payload)
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(payload))
	p := buf[recHeaderSize:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(ops)))
	off := 4
	for _, op := range ops {
		var flags byte
		if op.Remove {
			flags = 1
		}
		p[off] = flags
		binary.LittleEndian.PutUint64(p[off+1:], op.Src)
		binary.LittleEndian.PutUint64(p[off+9:], op.Dst)
		binary.LittleEndian.PutUint32(p[off+17:], math.Float32bits(op.Weight))
		off += opSize
	}
	sum := crc32.Checksum(buf[0:12], castagnoli)
	sum = crc32.Update(sum, castagnoli, p)
	binary.LittleEndian.PutUint32(buf[12:16], sum)
	return buf
}

func decodeOps(payload []byte) ([]dynamic.Op, error) {
	count := binary.LittleEndian.Uint32(payload[0:4])
	if int(count)*opSize+4 != len(payload) {
		return nil, fmt.Errorf("%w: op count %d does not match payload size %d", ErrCorrupt, count, len(payload))
	}
	ops := make([]dynamic.Op, count)
	off := 4
	for i := range ops {
		ops[i] = dynamic.Op{
			Remove: payload[off]&1 != 0,
			Src:    binary.LittleEndian.Uint64(payload[off+1:]),
			Dst:    binary.LittleEndian.Uint64(payload[off+9:]),
			Weight: math.Float32frombits(binary.LittleEndian.Uint32(payload[off+17:])),
		}
		off += opSize
	}
	return ops, nil
}

// Append assigns the batch the next sequence number, hands it to the
// committer, and blocks until it is durable per the sync policy (and,
// when a Commit hook is set, visible). It returns the assigned
// sequence.
func (l *Log) Append(ops []dynamic.Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	req := &appendReq{seq: seq, ops: ops, rec: encodeRecord(seq, ops), done: make(chan error, 1)}
	l.queue = append(l.queue, req)
	l.cond.Signal()
	l.mu.Unlock()
	return seq, <-req.done
}

// LastSeq returns the highest sequence assigned so far (durable or
// in flight).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// committer is the single goroutine that writes and syncs batches. It
// drains whatever queued while the previous fsync ran (piggyback group
// commit), then acks each batch in sequence order.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()
		l.commitChunk(batch)
	}
}

// commitChunk writes one drained group of batches, syncs once, then
// acks them. A write that fails stops the pass there: the batches
// written before it are acked, and it and every batch after it fail.
func (l *Log) commitChunk(reqs []*appendReq) {
	if l.curFile == nil || l.curSize >= l.opt.SegmentBytes {
		if err := l.rotate(reqs[0].seq); err != nil {
			l.poison(err, reqs)
			return
		}
	}
	written := len(reqs)
	var werr error
	for i, r := range reqs {
		n, err := l.curFile.Write(r.rec)
		l.curSize += int64(n)
		if err != nil {
			written, werr = i, err
			break
		}
	}
	if l.opt.Policy != SyncOff {
		t0 := time.Now()
		if err := l.curFile.Sync(); err != nil {
			// Nothing in this chunk is known durable — fail every
			// batch. The written records may still surface after a
			// restart (the OS can have persisted them), which is the
			// unavoidable "commit outcome unknown" window of any log.
			l.poison(err, reqs)
			return
		}
		l.opt.Stats.Fsyncs.Add(1)
		if l.opt.ObserveFsync != nil {
			l.opt.ObserveFsync(time.Since(t0))
		}
	}
	for _, r := range reqs[:written] {
		var err error
		if l.opt.Commit != nil {
			err = l.opt.Commit(r.seq, r.ops)
		}
		if err == nil {
			// Count only fully acked batches: a Commit-hook failure fails
			// the Append even though the record is durable, and the
			// counter's contract is acked, not written.
			l.opt.Stats.Appends.Add(1)
		}
		r.done <- err
	}
	if werr != nil {
		// The tail is torn mid-record: appending more would bury the
		// damage where reopen-truncation cannot reach it. Poison.
		l.poison(werr, reqs[written:])
	}
}

// poison marks the log failed, fails reqs and everything still queued.
func (l *Log) poison(cause error, reqs []*appendReq) {
	err := fmt.Errorf("%w: %w", ErrFailed, cause)
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	queued := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, r := range reqs {
		r.done <- err
	}
	for _, r := range queued {
		r.done <- err
	}
}

// rotate syncs and closes the current segment and starts a new one
// whose first record will be firstSeq.
func (l *Log) rotate(firstSeq uint64) error {
	if l.curFile != nil {
		if l.opt.Policy != SyncOff {
			if err := l.curFile.Sync(); err != nil {
				return err
			}
		}
		if err := l.curFile.Close(); err != nil {
			return err
		}
		l.curFile = nil
	}
	name := segName(firstSeq)
	f, err := l.fs.OpenAppend(filepath.Join(l.dir, name))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.curFile = f
	l.curSize = 0
	l.mu.Lock()
	l.segs = append(l.segs, segInfo{name: name, first: firstSeq})
	l.mu.Unlock()
	return nil
}

// Replay streams every intact record with sequence > from to fn, in
// order, then makes the next sequence at least from+1 (see resumePast).
// It is meant for the quiet window right after Open, before concurrent
// appends start.
func (l *Log) Replay(from uint64, fn func(seq uint64, ops []dynamic.Op) error) (int, error) {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	replayed := 0
	visit := func(seq uint64, payload []byte) error {
		if seq <= from {
			return nil
		}
		ops, err := decodeOps(payload)
		if err != nil {
			return err
		}
		if err := fn(seq, ops); err != nil {
			return err
		}
		replayed++
		l.opt.Stats.ReplayedBatches.Add(1)
		return nil
	}
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from+1 {
			continue // its last record, the successor's first - 1, is <= from
		}
		// Open already truncated the torn tail and checked that each
		// segment continues its predecessor.
		path := filepath.Join(l.dir, s.name)
		if _, err := l.scanSegment(path, s.first, visit); err != nil {
			return replayed, fmt.Errorf("wal: replay %s: %w", path, err)
		}
	}
	return replayed, l.resumePast(from)
}

// resumePast makes the next sequence at least from+1. A store whose
// MANIFEST is ahead of the whole log (moved without its wal/ directory,
// or beside an older one) has folded in every record the log holds;
// numbering on from the log's end would give acked batches sequences
// the next replay skips. The segments go first, so the log never holds
// the sequence gap Open rejects. The committer is idle in Replay's quiet
// window, so closing its tail file here is safe.
func (l *Log) resumePast(from uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.nextSeq {
		return nil
	}
	if l.curFile != nil {
		l.curFile.Close()
		l.curFile = nil
	}
	for _, s := range l.segs {
		if err := l.fs.Remove(filepath.Join(l.dir, s.name)); err != nil {
			return fmt.Errorf("wal: drop segments behind seq %d: %w", from, err)
		}
	}
	l.segs, l.nextSeq = nil, from+1
	return l.fs.SyncDir(l.dir)
}

// TruncateThrough removes segments every record of which has sequence
// <= seq — the garbage collection run after a compaction makes a prefix
// of the log redundant. The active tail segment is never removed.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segs) > 1 && l.segs[1].first <= seq+1 {
		// segs[0]'s last record is segs[1].first-1 <= seq: redundant.
		path := filepath.Join(l.dir, l.segs[0].name)
		if err := l.fs.Remove(path); err != nil {
			break
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		return l.fs.SyncDir(l.dir)
	}
	return nil
}

// Segments returns the current segment count (for tests and stats).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close drains queued appends, stops the committer and closes the tail
// segment. Further Appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	if l.curFile == nil {
		return nil
	}
	var err error
	if l.opt.Policy != SyncOff && l.failed == nil {
		err = l.curFile.Sync()
	}
	if cerr := l.curFile.Close(); err == nil {
		err = cerr
	}
	l.curFile = nil
	return err
}
