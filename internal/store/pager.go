package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/obs"
)

// Pager reads pages through an LRU buffer: a buffer hit costs no disk I/O,
// a miss reads from the simulated disk and caches the page. This mirrors the
// paper's setup of a disk-resident database with a buffer of 10 % of the
// index size.
//
// The disk is accessed through the PageSource interface, so a Pager works
// unchanged over a bare *Disk or over a wrapper such as the fault injector.
//
// Pager is safe for concurrent use. Concurrent misses on the same page are
// coalesced into a single disk read ("singleflight"): the first caller goes
// to disk, later callers wait for its result. This keeps the cost-model
// invariant that a page is read from disk at most once per working set even
// when several goroutines — e.g. concurrent msq sessions — request it at
// the same instant.
type Pager struct {
	disk PageSource
	buf  *Buffer

	mu       sync.Mutex
	inflight map[PageID]*flight

	// tracer, when set, receives a page_fetch span for every disk read the
	// pager issues (buffer hits and singleflight waiters observe nothing).
	// Held in an atomic pointer so SetTracer is safe against concurrent
	// readers; a nil tracer costs one predictable branch per miss.
	tracer atomic.Pointer[obs.Tracer]
}

// flight is one in-progress disk read awaited by one or more callers.
type flight struct {
	done chan struct{}
	page *Page
	err  error
}

// NewPager combines a page source and a buffer. A nil buffer means
// unbuffered access (every read hits the disk).
func NewPager(disk PageSource, buf *Buffer) (*Pager, error) {
	if disk == nil {
		return nil, fmt.Errorf("store: pager needs a disk")
	}
	return &Pager{disk: disk, buf: buf, inflight: make(map[PageID]*flight)}, nil
}

// ReadPage returns the page, going to disk only on a buffer miss. The buffer
// probe happens under the pager lock so that exactly one hit-or-miss count
// is charged per call, and so that a miss and the in-flight registration
// are atomic — two concurrent misses cannot both reach the disk. A caller
// that joins another caller's in-flight read is served without disk I/O
// and is charged a hit once that read succeeds, so with a buffer holding
// the working set the misses equal the disk reads.
func (p *Pager) ReadPage(pid PageID) (*Page, error) {
	p.mu.Lock()
	if f, ok := p.inflight[pid]; ok {
		p.mu.Unlock()
		<-f.done
		if p.buf != nil {
			p.buf.count(f.err == nil)
		}
		return f.page, f.err
	}
	if p.buf != nil {
		if pg, ok := p.buf.Get(pid); ok {
			p.mu.Unlock()
			return pg, nil
		}
	}
	f := &flight{done: make(chan struct{})}
	p.inflight[pid] = f
	p.mu.Unlock()

	tr := p.tracer.Load()
	traced := tr.Enabled()
	var fetchStart time.Time
	if traced {
		fetchStart = time.Now()
	}
	page, err := p.disk.Read(pid)
	if traced {
		tr.ObserveSince(obs.PhasePageFetch, fetchStart)
	}
	if err == nil && p.buf != nil {
		// Cache before releasing the waiters, so that by the time any
		// later ReadPage misses the buffer the page can only have been
		// evicted, never "not yet inserted".
		p.buf.Put(pid, page)
	}
	p.mu.Lock()
	f.page, f.err = page, err
	delete(p.inflight, pid)
	p.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, err
	}
	return page, nil
}

// SetTracer installs (or, with nil, removes) the tracer that times the
// pager's disk reads as page_fetch spans. It may be called at any time,
// including while reads are in flight. When the underlying page source is
// itself tracer-aware (a FileDisk timing real I/O as storage_read spans),
// the tracer is forwarded so one installation instruments the whole read
// path.
func (p *Pager) SetTracer(tr *obs.Tracer) {
	p.tracer.Store(tr)
	if s, ok := p.disk.(interface{ SetTracer(*obs.Tracer) }); ok {
		s.SetTracer(tr)
	}
}

// Tracer returns the installed tracer, or nil.
func (p *Pager) Tracer() *obs.Tracer { return p.tracer.Load() }

// NumPages returns the number of pages on the underlying disk.
func (p *Pager) NumPages() int { return p.disk.NumPages() }

// Disk returns the underlying page source (for statistics).
func (p *Pager) Disk() PageSource { return p.disk }

// Buffer returns the buffer, or nil for an unbuffered pager.
func (p *Pager) Buffer() *Buffer { return p.buf }

// ResetStats zeroes disk statistics and clears the buffer so experiments
// start cold, returning the previous disk snapshot.
func (p *Pager) ResetStats() IOStats {
	if p.buf != nil {
		p.buf.Clear()
	}
	return p.disk.ResetStats()
}
