// Package diskio provides the storage substrate for NXgraph: files whose
// read/write traffic is byte-accounted and, optionally, throttled by a
// simple disk performance model (sequential bandwidth plus per-seek
// latency).
//
// The paper evaluates NXgraph on both SSD and HDD and derives analytic
// amounts of disk traffic for each update strategy (Table II). Real spinning
// and solid-state disks are not available in this reproduction environment,
// so diskio substitutes a model: sequential transfers cost
// bytes/bandwidth, and every discontiguous access adds the profile's seek
// latency. Byte counters expose exactly how much each component read and
// wrote, which the test-suite checks against the paper's Table II
// equations.
package diskio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a simulated disk.
type Profile struct {
	Name string
	// ReadBW and WriteBW are sequential bandwidths in bytes per second.
	// Zero means unthrottled.
	ReadBW  float64
	WriteBW float64
	// Seek is the latency charged whenever an access is not contiguous
	// with the previous access to the same file.
	Seek time.Duration
	// TimeScale divides all simulated delays, letting the benchmark
	// harness model big disks at small time cost. 0 means 1.
	TimeScale float64
}

// Predefined profiles. The HDD and SSD numbers follow the hardware class
// used in the paper's evaluation (a commodity PC with a SATA HDD and a
// RAID-0 pair of SATA SSDs).
var (
	// Unthrottled performs no simulation; only byte accounting.
	Unthrottled = Profile{Name: "unthrottled"}
	// SSD models a SATA SSD RAID-0: ~520 MB/s sequential, 60 µs seek.
	SSD = Profile{Name: "ssd", ReadBW: 520e6, WriteBW: 480e6, Seek: 60 * time.Microsecond}
	// HDD models a 7200 rpm SATA disk: ~140 MB/s sequential, 8 ms seek.
	HDD = Profile{Name: "hdd", ReadBW: 140e6, WriteBW: 130e6, Seek: 8 * time.Millisecond}
)

// Stats accumulates traffic counters for a Disk.
type Stats struct {
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	Seeks        atomic.Int64
	// SimulatedDelay is the total artificial delay injected, in
	// nanoseconds. With a zero-latency profile it stays zero.
	SimulatedDelay atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead.Load(),
		BytesWritten:   s.BytesWritten.Load(),
		Seeks:          s.Seeks.Load(),
		SimulatedDelay: time.Duration(s.SimulatedDelay.Load()),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	BytesRead      int64
	BytesWritten   int64
	Seeks          int64
	SimulatedDelay time.Duration
}

// Total returns read plus written bytes.
func (s StatsSnapshot) Total() int64 { return s.BytesRead + s.BytesWritten }

// Sub returns s - t, counter-wise.
func (s StatsSnapshot) Sub(t StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		BytesRead:      s.BytesRead - t.BytesRead,
		BytesWritten:   s.BytesWritten - t.BytesWritten,
		Seeks:          s.Seeks - t.Seeks,
		SimulatedDelay: s.SimulatedDelay - t.SimulatedDelay,
	}
}

func (s StatsSnapshot) String() string {
	return fmt.Sprintf("read=%d written=%d seeks=%d delay=%s",
		s.BytesRead, s.BytesWritten, s.Seeks, s.SimulatedDelay)
}

// Disk is a directory-rooted namespace of simulated files. All files opened
// through one Disk share its Profile and its Stats.
type Disk struct {
	root    string
	profile Profile
	stats   Stats
	sleep   func(time.Duration) // test hook; defaults to time.Sleep
	// debt accumulates owed simulated delay (ns). Sleeping per operation
	// would overshoot badly for sub-millisecond charges (OS timer
	// granularity), so charges accumulate and sleep in >=2ms slices.
	debt atomic.Int64
}

// debtSliceNs is the minimum accumulated delay worth an actual sleep.
const debtSliceNs = int64(2 * time.Millisecond)

// New returns a Disk rooted at dir using the given profile. The directory
// is created if it does not exist.
func New(dir string, p Profile) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskio: create root: %w", err)
	}
	return &Disk{root: dir, profile: p, sleep: time.Sleep}, nil
}

// MustNew is New that panics on error; intended for tests and examples.
func MustNew(dir string, p Profile) *Disk {
	d, err := New(dir, p)
	if err != nil {
		panic(err)
	}
	return d
}

// Root returns the directory the disk is rooted at.
func (d *Disk) Root() string { return d.root }

// Profile returns the disk's performance profile.
func (d *Disk) Profile() Profile { return d.profile }

// Stats returns the disk's traffic counters.
func (d *Disk) Stats() *Stats { return &d.stats }

// ResetStats zeroes all counters.
func (d *Disk) ResetStats() {
	d.stats.BytesRead.Store(0)
	d.stats.BytesWritten.Store(0)
	d.stats.Seeks.Store(0)
	d.stats.SimulatedDelay.Store(0)
}

// Path resolves a disk-relative file name.
func (d *Disk) Path(name string) string { return filepath.Join(d.root, name) }

// charge simulates the time cost of moving n bytes at bandwidth bw.
func (d *Disk) charge(n int, bw float64, seek bool) {
	var delay time.Duration
	if seek && d.profile.Seek > 0 {
		d.stats.Seeks.Add(1)
		delay += d.profile.Seek
	}
	if bw > 0 && n > 0 {
		delay += time.Duration(float64(n) / bw * float64(time.Second))
	}
	if delay <= 0 {
		return
	}
	if ts := d.profile.TimeScale; ts > 1 {
		delay = time.Duration(float64(delay) / ts)
	}
	d.stats.SimulatedDelay.Add(int64(delay))
	if owed := d.debt.Add(int64(delay)); owed >= debtSliceNs {
		d.debt.Add(-owed)
		d.sleep(time.Duration(owed))
	}
}

// File is a simulated file handle. It implements io.ReaderAt, io.WriterAt,
// io.ReadWriteSeeker and io.Closer.
type File struct {
	disk *Disk
	f    *os.File
	name string

	mu      sync.Mutex
	lastPos int64 // next contiguous offset; -1 if unknown
	pos     int64 // seek position for Read/Write
}

// Create creates (truncating) a file on the disk.
func (d *Disk) Create(name string) (*File, error) {
	if err := os.MkdirAll(filepath.Dir(d.Path(name)), 0o755); err != nil {
		return nil, fmt.Errorf("diskio: create parent: %w", err)
	}
	f, err := os.Create(d.Path(name))
	if err != nil {
		return nil, fmt.Errorf("diskio: create: %w", err)
	}
	return &File{disk: d, f: f, name: name, lastPos: 0}, nil
}

// CreateScratch creates a file no other caller can reach: it is made in
// dir under a fresh name and unlinked at once, so it lives exactly as
// long as its handle, and neither a concurrent caller nor a crash can
// find or leave it. Its traffic is accounted like any other file's.
func (d *Disk) CreateScratch(dir string) (*File, error) {
	f, err := os.CreateTemp(d.Path(dir), ".scratch-*")
	if err != nil {
		return nil, fmt.Errorf("diskio: create scratch: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskio: unlink scratch: %w", err)
	}
	return &File{disk: d, f: f, name: dir + "/" + filepath.Base(f.Name()), lastPos: 0}, nil
}

// Open opens an existing file for reading and writing.
func (d *Disk) Open(name string) (*File, error) {
	f, err := os.OpenFile(d.Path(name), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("diskio: open: %w", err)
	}
	return &File{disk: d, f: f, name: name, lastPos: 0}, nil
}

// Remove deletes a file from the disk.
func (d *Disk) Remove(name string) error {
	if err := os.Remove(d.Path(name)); err != nil {
		return fmt.Errorf("diskio: remove: %w", err)
	}
	return nil
}

// Exists reports whether the named file exists on the disk.
func (d *Disk) Exists(name string) bool {
	_, err := os.Stat(d.Path(name))
	return err == nil
}

// Name returns the disk-relative name of the file.
func (f *File) Name() string { return f.name }

// Size returns the current size of the file.
func (f *File) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("diskio: stat: %w", err)
	}
	return fi.Size(), nil
}

// ReadAt implements io.ReaderAt with accounting and throttling.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	seek := off != f.lastPos
	f.lastPos = off + int64(len(p))
	f.mu.Unlock()
	n, err := f.f.ReadAt(p, off)
	f.disk.stats.BytesRead.Add(int64(n))
	f.disk.charge(n, f.disk.profile.ReadBW, seek)
	return n, err
}

// WriteAt implements io.WriterAt with accounting and throttling.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	seek := off != f.lastPos
	f.lastPos = off + int64(len(p))
	f.mu.Unlock()
	n, err := f.f.WriteAt(p, off)
	f.disk.stats.BytesWritten.Add(int64(n))
	f.disk.charge(n, f.disk.profile.WriteBW, seek)
	return n, err
}

// Read implements io.Reader at the file's seek position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.pos
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.pos = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Write implements io.Writer at the file's seek position.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.pos
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.pos = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		fi, err := f.f.Stat()
		if err != nil {
			return 0, fmt.Errorf("diskio: seek: %w", err)
		}
		base = fi.Size()
	default:
		return 0, fmt.Errorf("diskio: seek: invalid whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("diskio: seek: negative position %d", np)
	}
	f.pos = np
	return np, nil
}

// Sync flushes the file to the underlying OS file.
func (f *File) Sync() error { return f.f.Sync() }

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }
