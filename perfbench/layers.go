package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The traced run interposes these wrappers at the layers' public
// interfaces: net.Listener/net.Conn under the wire server, engine.Engine
// between the query processor and the engine, and store.PageSource under
// the engine's pager. They time and count calls into the layer below and
// change nothing else. Program-internal tracing (obs.Tracer) stays off.

// layerRec accumulates what the wrappers observe.
type layerRec struct {
	// wire: bytes through the server's connections and one span per
	// request, from its first byte read to its last response byte
	// written.
	bytesIn, bytesOut atomic.Int64
	mu                sync.Mutex
	serverSpans       []time.Duration
	// engine: Prepare and Plan calls and time, ReadPage calls and time
	// (the latter includes the pager and the store beneath).
	prepares, prepareNs atomic.Int64
	readCalls, readNs   atomic.Int64
	// store: page source reads and their time.
	srcReads, srcNs atomic.Int64
}

// layerSnap is a point-in-time copy of a layerRec's counters.
type layerSnap struct {
	bytesIn, bytesOut   int64
	spans               int
	prepares, prepareNs int64
	readCalls, readNs   int64
	srcReads, srcNs     int64
}

func (r *layerRec) snap() layerSnap {
	r.mu.Lock()
	spans := len(r.serverSpans)
	r.mu.Unlock()
	return layerSnap{
		bytesIn: r.bytesIn.Load(), bytesOut: r.bytesOut.Load(), spans: spans,
		prepares: r.prepares.Load(), prepareNs: r.prepareNs.Load(),
		readCalls: r.readCalls.Load(), readNs: r.readNs.Load(),
		srcReads: r.srcReads.Load(), srcNs: r.srcNs.Load(),
	}
}

// sub returns the counter deltas from b to s.
func (s layerSnap) sub(b layerSnap) layerSnap {
	return layerSnap{
		bytesIn: s.bytesIn - b.bytesIn, bytesOut: s.bytesOut - b.bytesOut, spans: s.spans - b.spans,
		prepares: s.prepares - b.prepares, prepareNs: s.prepareNs - b.prepareNs,
		readCalls: s.readCalls - b.readCalls, readNs: s.readNs - b.readNs,
		srcReads: s.srcReads - b.srcReads, srcNs: s.srcNs - b.srcNs,
	}
}

// spansFrom returns the server spans recorded since snapshot b.
func (r *layerRec) spansFrom(b layerSnap) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.serverSpans[b.spans:]...)
}

// tracedListener wraps every accepted connection in a tracedConn.
type tracedListener struct {
	net.Listener
	rec *layerRec
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec}, nil
}

// tracedConn times each request on a server connection: the span opens
// when a read returns the request's first bytes and closes when a write
// ends with the newline that terminates the response line. The server
// reads and writes a connection from one goroutine, and the protocol has
// one request in flight per connection, so the fields need no lock.
type tracedConn struct {
	net.Conn
	rec     *layerRec
	open    bool
	started time.Time
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if !c.open {
			c.open, c.started = true, time.Now()
		}
		c.rec.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.bytesOut.Add(int64(n))
	if c.open && n > 0 && p[n-1] == '\n' {
		c.open = false
		d := time.Since(c.started)
		c.rec.mu.Lock()
		c.rec.serverSpans = append(c.rec.serverSpans, d)
		c.rec.mu.Unlock()
	}
	return n, err
}

// tracedEngine times Prepare (with the Plan calls of the handles it
// returns) and ReadPage.
type tracedEngine struct {
	engine.Engine
	rec *layerRec
}

// wrapEngine wraps e, forwarding the optional PivotCoster and Described
// interfaces exactly when e implements them, so the processor sees the
// same capabilities it would see unwrapped.
func wrapEngine(e engine.Engine, rec *layerRec) engine.Engine {
	t := &tracedEngine{Engine: e, rec: rec}
	pc, isPC := e.(engine.PivotCoster)
	d, isD := e.(engine.Described)
	switch {
	case isPC && isD:
		return struct {
			*tracedEngine
			engine.PivotCoster
			engine.Described
		}{t, pc, d}
	case isPC:
		return struct {
			*tracedEngine
			engine.PivotCoster
		}{t, pc}
	case isD:
		return struct {
			*tracedEngine
			engine.Described
		}{t, d}
	}
	return t
}

func (e *tracedEngine) Prepare(q vec.Vector) engine.PreparedQuery {
	t0 := time.Now()
	pq := e.Engine.Prepare(q)
	e.rec.prepareNs.Add(int64(time.Since(t0)))
	e.rec.prepares.Add(1)
	return &tracedPrepared{PreparedQuery: pq, rec: e.rec}
}

func (e *tracedEngine) ReadPage(pid store.PageID) (*store.Page, error) {
	t0 := time.Now()
	p, err := e.Engine.ReadPage(pid)
	e.rec.readNs.Add(int64(time.Since(t0)))
	e.rec.readCalls.Add(1)
	return p, err
}

// tracedPrepared adds Plan time to the engine's prepare time. MinDist and
// MaxDist pass through untimed: they are called per page and query, and
// timing them would cost more than they do.
type tracedPrepared struct {
	engine.PreparedQuery
	rec *layerRec
}

func (p *tracedPrepared) Plan(queryDist float64) []engine.PageRef {
	t0 := time.Now()
	refs := p.PreparedQuery.Plan(queryDist)
	p.rec.prepareNs.Add(int64(time.Since(t0)))
	return refs
}

// tracedSource times and counts page reads that reach the page source.
type tracedSource struct {
	store.PageSource
	rec *layerRec
}

func (s *tracedSource) Read(pid store.PageID) (*store.Page, error) {
	t0 := time.Now()
	p, err := s.PageSource.Read(pid)
	s.rec.srcNs.Add(int64(time.Since(t0)))
	s.rec.srcReads.Add(1)
	return p, err
}
