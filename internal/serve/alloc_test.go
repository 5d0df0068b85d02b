package serve

import (
	"bufio"
	"io"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/link"
	"hohtx/internal/list"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/tree"
)

// The allocation-budget gate (DESIGN.md §15): steady-state request
// serving must cost ZERO heap allocations per operation, so the bench
// numbers measure the structures and not the Go garbage collector. The
// pins drive the real serving code (scanner → parse → lease → structure
// → reply render) in-process: testing.AllocsPerRun counts process-wide
// mallocs, so a socket with a client goroutine on the other end would
// charge the server for the client's allocations. CI runs these as the
// alloc-budget leg; a regression here fails the build, not a dashboard.

// loopReader replays a request script forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// newAllocConn wires a conn over a replaying script, exactly as handle()
// would build it for a socket.
func newAllocConn(t *testing.T, srv *Server, script string) *conn {
	t.Helper()
	br := bufio.NewReaderSize(&loopReader{data: []byte(script)}, 4<<10)
	c := &conn{
		srv:    srv,
		br:     br,
		bw:     bufio.NewWriterSize(io.Discard, 4<<10),
		sc:     NewLineScanner(br),
		leases: newConnLeases(srv.shards),
	}
	// Registered after the pool's Close, so it runs first (LIFO): Close
	// blocks until every lease is back.
	t.Cleanup(c.leases.releaseAll)
	return c
}

func newAllocServer(t *testing.T, slots int) *Server {
	t.Helper()
	set := list.New(link.Config{
		Mode: link.ModeRR, RRKind: core.KindV,
		Threads: slots, Window: core.Window{W: 8},
	})
	pool := NewPool(set, PoolConfig{Slots: slots})
	t.Cleanup(pool.Close)
	return NewServer(ServerConfig{Set: set, Pool: pool})
}

// pinZero runs one scripted request per iteration and fails on the first
// heap allocation. The script must be steady-state: every SET matched by
// a DEL, so the arena neither grows nor shrinks across iterations.
func pinZero(t *testing.T, name string, srv *Server, script string, linesPerIter int) {
	t.Helper()
	c := newAllocConn(t, srv, script)
	serve := func() {
		for i := 0; i < linesPerIter; i++ {
			line, err := c.sc.Line()
			if err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			if !c.serveLine(line) {
				t.Fatalf("%s: connection dropped", name)
			}
		}
	}
	serve() // prime: leases, scratch high-water marks, arena free lists
	if got := testing.AllocsPerRun(2000, serve); got != 0 {
		t.Errorf("%s: %.4f allocs/op, want 0", name, got)
	}
}

// TestServeAllocsPointOps pins the GET, SET and DEL serve paths at zero
// heap allocations per request.
func TestServeAllocsPointOps(t *testing.T) {
	srv := newAllocServer(t, 2)
	pinZero(t, "GET", srv, "GET 5\n", 1)
	pinZero(t, "SET+DEL", srv, "SET 6\nDEL 6\n", 2)
}

// TestServeAllocsMulti pins the single-shard MULTI frame — parse, batch
// transaction, per-op replies — at zero heap allocations per frame.
func TestServeAllocsMulti(t *testing.T) {
	srv := newAllocServer(t, 2)
	pinZero(t, "MULTI", srv, "MULTI 4\nSET 7\nGET 7\nDEL 7\nGET 8\n", 1)
}

// TestServeAllocsMalformed pins the malformed-input replies: sentinel
// diagnoses rendered into connection scratch, not fmt.Errorf chains, so
// a garbage flood cannot allocate its way past the budget. (The quoted
// bad-key token passes through a stack-allocated string conversion; the
// pin proves it stays on the stack.)
func TestServeAllocsMalformed(t *testing.T) {
	srv := newAllocServer(t, 2)
	pinZero(t, "bad-key", srv, "GET zero\n", 1)
	pinZero(t, "missing-key", srv, "SET\n", 1)
	pinZero(t, "out-of-range", srv, "GET 99999999999\n", 1)
	pinZero(t, "unknown-verb", srv, "FROB 1\n", 1)
}

// TestStructureAllocs pins the layer below the wire: warm single ops on
// every structure family allocate nothing (bound link hooks, per-thread
// transactions), and so does batch Apply on the lists (per-thread batch
// scratch; see stm.OnCommitCall). The structures hold 64 keys, so W = 8
// traversals cut windows and the link's hold path runs too.
func TestStructureAllocs(t *testing.T) {
	rrv := link.Config{Mode: link.ModeRR, RRKind: core.KindV, Threads: 2, Window: core.Window{W: 8}}
	hp, vbr := rrv, rrv
	hp.Mode, vbr.Mode = link.ModeTMHP, link.ModeTMVBR
	ops := make([]sets.Op, 0, 64)
	for i := 0; i < 32; i++ {
		ops = append(ops, sets.Op{Kind: sets.OpInsert, Key: uint64(101 + 2*i)})
	}
	for i := 0; i < 32; i++ {
		ops = append(ops, sets.Op{Kind: sets.OpRemove, Key: uint64(101 + 2*i)})
	}
	for _, fam := range []struct {
		name  string
		set   sets.Set
		batch bool // Apply reuses per-thread scratch (the lists)
	}{
		{"singly/RR-V", list.New(rrv), true},
		{"singly/TMHP", list.New(hp), true},
		{"singly/TMVBR", list.New(vbr), true},
		{"etree/RR-V", tree.NewExternal(rrv), false},
		{"itree/RR-V", tree.NewInternal(rrv), false},
		{"skip/RR-V", skiplist.New(rrv), false},
	} {
		set := fam.set
		set.Register(0)
		for k := uint64(0); k < 128; k += 2 {
			set.Insert(0, k)
		}
		set.Apply(0, ops) // prime arena + scratch
		cases := []struct {
			name string
			f    func()
		}{
			{"lookup", func() { set.Lookup(0, 50) }},
			{"insert+remove", func() { set.Insert(0, 51); set.Remove(0, 51) }},
		}
		if fam.batch {
			cases = append(cases, struct {
				name string
				f    func()
			}{"apply-64", func() { set.Apply(0, ops) }})
		}
		for _, c := range cases {
			c.f() // warm: retire lists, hazard scans, hook queues
			if got := testing.AllocsPerRun(500, c.f); got != 0 {
				t.Errorf("%s %s: %.4f allocs/op, want 0", fam.name, c.name, got)
			}
		}
	}
}
