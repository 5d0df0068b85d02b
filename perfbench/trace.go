package main

import (
	"io"
	"net"
	"sync/atomic"
	"syscall"

	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// The traced run wraps only what the benchmark hands the program: the
// listener with its accepted connections, and each sets.Set given to
// serve.NewPool and serve.NewServer. Everything else per layer comes from
// the layers' public stats functions.

// netCounters is the server side of the loopback sockets.
type netCounters struct {
	readCalls, readBytes, readSysNs atomic.Int64
	writeCalls, writeBytes, writeNs atomic.Int64
	serveNs                         atomic.Int64 // conn goroutine time outside Read/Write
}

type netSnap struct {
	readCalls, readBytes, readSysNs int64
	writeCalls, writeBytes, writeNs int64
	serveNs                         int64
}

func (n *netCounters) snap() netSnap {
	return netSnap{
		n.readCalls.Load(), n.readBytes.Load(), n.readSysNs.Load(),
		n.writeCalls.Load(), n.writeBytes.Load(), n.writeNs.Load(),
		n.serveNs.Load(),
	}
}

type tracedListener struct {
	net.Listener
	nc *netCounters
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	tc := &tracedConn{Conn: c, rc: rc, nc: l.nc}
	tc.readFn = tc.readOnce
	return tc, nil
}

// tracedConn times the read(2) calls behind each Read, so time parked
// waiting for the client's next request is not charged to the socket, and
// charges the connection goroutine's time between socket calls to serve.
// Only the server's connection goroutine calls Read and Write.
type tracedConn struct {
	net.Conn
	rc     syscall.RawConn
	nc     *netCounters
	readFn func(fd uintptr) bool

	buf     []byte
	n       int
	err     error
	lastEnd int64 // when the previous Read or Write returned; 0 before the first
}

func (c *tracedConn) readOnce(fd uintptr) bool {
	t := nanotime()
	c.n, c.err = syscall.Read(int(fd), c.buf)
	c.nc.readSysNs.Add(nanotime() - t)
	return c.err != syscall.EAGAIN
}

func (c *tracedConn) enter() {
	if c.lastEnd != 0 {
		c.nc.serveNs.Add(nanotime() - c.lastEnd)
	}
}

func (c *tracedConn) Read(b []byte) (int, error) {
	c.enter()
	c.buf = b
	err := c.rc.Read(c.readFn)
	c.buf = nil
	c.lastEnd = nanotime()
	if err == nil {
		err = c.err
	}
	n := c.n
	if n < 0 {
		n = 0
	}
	if err == nil && n == 0 && len(b) > 0 {
		err = io.EOF
	}
	c.nc.readCalls.Add(1)
	c.nc.readBytes.Add(int64(n))
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	c.enter()
	t := nanotime()
	n, err := c.Conn.Write(b)
	c.lastEnd = nanotime()
	c.nc.writeCalls.Add(1)
	c.nc.writeBytes.Add(int64(n))
	c.nc.writeNs.Add(c.lastEnd - t)
	return n, err
}

// tracedSet times every structure call and forwards every optional
// interface serve.NewServer looks for, so the traced server advertises
// and does exactly what the untraced one does.
type tracedSet struct {
	sets.Set
	calls, callNs    atomic.Int64
	applies, applyNs atomic.Int64
	callLat          hist // per Lookup/Insert/Remove/Apply call
}

func newTracedSet(s sets.Set) *tracedSet { return &tracedSet{Set: s} }

func (t *tracedSet) done(t0 int64) {
	d := nanotime() - t0
	t.calls.Add(1)
	t.callNs.Add(d)
	t.callLat.record(uint64(d))
}

func (t *tracedSet) Lookup(tid int, key uint64) bool {
	t0 := nanotime()
	ok := t.Set.Lookup(tid, key)
	t.done(t0)
	return ok
}

func (t *tracedSet) Insert(tid int, key uint64) bool {
	t0 := nanotime()
	ok := t.Set.Insert(tid, key)
	t.done(t0)
	return ok
}

func (t *tracedSet) Remove(tid int, key uint64) bool {
	t0 := nanotime()
	ok := t.Set.Remove(tid, key)
	t.done(t0)
	return ok
}

func (t *tracedSet) Apply(tid int, ops []sets.Op) []sets.Result {
	t0 := nanotime()
	r := t.Set.Apply(tid, ops)
	t.done(t0)
	t.applies.Add(1)
	t.applyNs.Add(nanotime() - t0)
	return r
}

func (t *tracedSet) LiveNodes() uint64 {
	if m, ok := t.Set.(sets.MemoryReporter); ok {
		return m.LiveNodes()
	}
	return 0
}

func (t *tracedSet) DeferredNodes() uint64 {
	if m, ok := t.Set.(sets.MemoryReporter); ok {
		return m.DeferredNodes()
	}
	return 0
}

func (t *tracedSet) Ascend(tid int, from uint64, fn func(key uint64) bool) error {
	if a, ok := t.Set.(sets.Ascender); ok {
		return a.Ascend(tid, from, fn)
	}
	return sets.ErrScanUnsupported
}

func (t *tracedSet) CanAscend() bool {
	if _, ok := t.Set.(sets.Ascender); !ok {
		return false
	}
	if c, ok := t.Set.(interface{ CanAscend() bool }); ok {
		return c.CanAscend()
	}
	return true
}

func (t *tracedSet) ObsDomain() *obs.Domain {
	if o, ok := t.Set.(interface{ ObsDomain() *obs.Domain }); ok {
		return o.ObsDomain()
	}
	return nil
}

func (t *tracedSet) TMStats() stm.Stats { return tmStats(t.Set) }

func (t *tracedSet) ReclaimStats() reclaim.Stats { return reclaimStats(t.Set) }

func (t *tracedSet) TxCommits() uint64 {
	if r, ok := t.Set.(interface{ TxCommits() uint64 }); ok {
		return r.TxCommits()
	}
	return 0
}

func (t *tracedSet) TxAborts() uint64 {
	if r, ok := t.Set.(interface{ TxAborts() uint64 }); ok {
		return r.TxAborts()
	}
	return 0
}

func (t *tracedSet) TxSerial() uint64 {
	if r, ok := t.Set.(interface{ TxSerial() uint64 }); ok {
		return r.TxSerial()
	}
	return 0
}

func tmStats(s sets.Set) stm.Stats {
	if r, ok := s.(interface{ TMStats() stm.Stats }); ok {
		return r.TMStats()
	}
	return stm.Stats{}
}

func reclaimStats(s sets.Set) reclaim.Stats {
	if r, ok := s.(interface{ ReclaimStats() reclaim.Stats }); ok {
		return r.ReclaimStats()
	}
	return reclaim.Stats{}
}
