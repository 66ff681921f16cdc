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
	// SyncAlways fsyncs every batch individually (MaxBatch=1 degenerate
	// group commit).
	SyncAlways
	// SyncOff never fsyncs: appends are acked once written to the OS.
	// Data survives a process crash but not a kernel crash or power
	// loss.
	SyncOff
)

// ParseSyncPolicy parses the -fsync flag values off|batch|always.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want off, batch or always)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "batch"
	}
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
	// MaxBatch caps appends per fsync (default 256).
	MaxBatch int
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
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 256
	}
	if opt.Policy == SyncAlways {
		opt.MaxBatch = 1
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
	segNames := names[:0]
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segNames = append(segNames, name)
		}
	}
	var lastSeq uint64
	seenRecords := false
	for i, name := range segNames {
		first, _ := parseSegName(name)
		path := filepath.Join(dir, name)
		// Within a segment, records run contiguously from the sequence
		// its name declares; across segments they continue without
		// gaps. (The log's prefix may be GC'd away, so the *first*
		// segment can start anywhere.)
		prev := first - 1
		if seenRecords {
			if first != lastSeq+1 {
				return nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d", ErrCorrupt, path, first, lastSeq+1)
			}
			prev = lastSeq
		}
		sc, err := l.scanSegment(path, prev)
		if err != nil {
			return nil, err
		}
		if sc.torn {
			if i != len(segNames)-1 {
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
		if sc.records > 0 {
			lastSeq = sc.last
			seenRecords = true
		}
		l.segs = append(l.segs, segInfo{name: name, first: first})
	}
	l.nextSeq = lastSeq + 1
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
		// Post-truncate size = bytes of intact records; recompute from
		// the scan below.
		l.curSize = l.tailSize()
	}
	l.wg.Add(1)
	go l.committer()
	return l, nil
}

// tailSize re-measures the tail segment after any truncation.
func (l *Log) tailSize() int64 {
	rf, err := l.fs.OpenRead(filepath.Join(l.dir, l.segs[len(l.segs)-1].name))
	if err != nil {
		return 0
	}
	defer rf.Close()
	n, err := rf.Size()
	if err != nil {
		return 0
	}
	return n
}

type segScan struct {
	last      uint64 // seq of the last intact record (0 if none)
	records   int
	goodBytes int64 // offset past the last intact record
	torn      bool  // trailing bytes do not form an intact record
}

// scanSegment walks one segment's records, verifying checksums and the
// contiguity of sequence numbers (each record must be prevSeq+1).
// Anything unreadable marks the scan torn at the last good offset; the
// caller decides whether that is a legal crash tail or corruption.
func (l *Log) scanSegment(path string, prevSeq uint64) (segScan, error) {
	rf, err := l.fs.OpenRead(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	defer rf.Close()
	var sc segScan
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
		if length < 4 || length > maxPayload || (length-4)%opSize != 0 {
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
		want := prevSeq + 1
		if sc.records > 0 {
			want = sc.last + 1
		}
		if seq != want {
			return sc, fmt.Errorf("%w: %s holds seq %d where %d was expected", ErrCorrupt, path, seq, want)
		}
		sc.last = seq
		sc.records++
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

		for len(batch) > 0 {
			n := len(batch)
			if n > l.opt.MaxBatch {
				n = l.opt.MaxBatch
			}
			l.commitChunk(batch[:n])
			batch = batch[n:]
			if len(batch) == 0 {
				break
			}
			l.mu.Lock()
			failed := l.failed
			l.mu.Unlock()
			if failed != nil {
				// The chunk poisoned the log: the tail may be torn, and
				// anything written past the tear would be acked now but
				// truncated away on reopen. Fail the rest of the drained
				// batch instead of committing it.
				for _, r := range batch {
					r.done <- failed
				}
				break
			}
		}
	}
}

// commitChunk writes one group of batches, syncs once, then acks them.
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
		d := time.Since(t0)
		l.opt.Stats.Fsyncs.Add(1)
		if l.opt.ObserveFsync != nil {
			l.opt.ObserveFsync(d)
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
// order. It is meant for the quiet window right after Open, before
// concurrent appends start.
func (l *Log) Replay(from uint64, fn func(seq uint64, ops []dynamic.Op) error) (int, error) {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	replayed := 0
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from+1 {
			// Every record this segment holds is <= from (its last is
			// the successor's first minus one): skip the whole file.
			continue
		}
		path := filepath.Join(l.dir, s.name)
		rf, err := l.fs.OpenRead(path)
		if err != nil {
			return replayed, fmt.Errorf("wal: replay %s: %w", path, err)
		}
		err = replaySegment(rf, from, fn, &replayed, l.opt.Stats)
		rf.Close()
		if err != nil {
			return replayed, fmt.Errorf("wal: replay %s: %w", path, err)
		}
	}
	return replayed, nil
}

func replaySegment(rf ReadFile, from uint64, fn func(uint64, []dynamic.Op) error, replayed *int, stats *Stats) error {
	br := bufio.NewReaderSize(rf, 1<<16)
	hdr := make([]byte, recHeaderSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			// Open already truncated torn tails; a partial header here
			// means we raced nothing (replay runs pre-append) so treat
			// any trailing garbage as end-of-log.
			return nil
		}
		length := binary.LittleEndian.Uint32(hdr[8:12])
		if length > maxPayload || length < 4 {
			return nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil
		}
		sum := crc32.Checksum(hdr[0:12], castagnoli)
		sum = crc32.Update(sum, castagnoli, payload)
		if sum != binary.LittleEndian.Uint32(hdr[12:16]) {
			return nil
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		if seq <= from {
			continue
		}
		ops, err := decodeOps(payload)
		if err != nil {
			return err
		}
		if err := fn(seq, ops); err != nil {
			return err
		}
		*replayed++
		stats.ReplayedBatches.Add(1)
	}
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
