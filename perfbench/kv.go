package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hohtx"
	"hohtx/internal/bench"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// kvSpec is one wire workload: a structure served by serve.Server on a
// 127.0.0.1 listener, driven by two connections.
type kvSpec struct {
	family      bench.Family
	variant     string
	shards      int
	keyRange    int
	frame       int // ops per request: 1 = plain GET/SET/DEL, n = MULTI n
	mix         mix
	probe       float64 // fixed offered rate (ops/s) at which latencies are taken
	extraSetups int     // set-ups per run beyond one per round; setup_s is their median
}

var kvSpecs = map[string]*kvSpec{
	"kv-point": {bench.FamilyExternalTree, "RR-V", 1, 65536, 1, mix{90, 5, 5}, 100000, 0},
	"kv-multi": {bench.FamilySingly, "TMHP", 2, 256, 8, mix{50, 25, 25}, 100000, 56},
}

// slotsPerShard is each shard's worker-slot count: one per connection,
// so a connection never queues for a slot.
const slotsPerShard = 2

// latencyLimit is the p99 bound, from each op's intended send time, that
// an offered rate must meet to count as sustained. It is 10 ms rather than
// 1 ms because the 2-vCPU VM this was tuned on stalls a running goroutine
// for 1–2.5 ms several times a second (a bare spinning goroutine sees
// it), so under a 1 ms limit every rate fails.
const latencyLimit = 10 * time.Millisecond

// streamLen is the length of each connection's cyclic op stream.
const streamLen = 1 << 18

type kvInstance struct {
	spec     *kvSpec
	sharded  *serve.Sharded
	traced   []*tracedSet
	pools    []*serve.Pool
	srv      *serve.Server
	served   chan error
	conns    []*wireConn
	models   []*model
	base     uint64 // live nodes of the empty structure: its sentinels
	nc       *netCounters
	infoLine string
	pr       paceResult
	pacer    *pacer
}

// kvInputs are generated from the seed before anything is timed.
type kvInputs struct {
	streams [owners][]uint32
	prefill [owners][]uint32
}

func kvGenerate(spec *kvSpec, seed int64) *kvInputs {
	in := &kvInputs{}
	for _, k := range prefillKeys(rand.New(rand.NewSource(seed)), spec.keyRange) {
		in.prefill[k%owners] = append(in.prefill[k%owners], packOp(sets.OpInsert, k))
	}
	for id := range in.streams {
		r := rand.New(rand.NewSource(seed*owners + int64(id) + 1))
		in.streams[id] = genOps(r, id, spec.keyRange, streamLen, spec.mix)
	}
	return in
}

// newKV builds the structure as hohserver builds it (without simulated
// preemption, so the program is the same at any GOMAXPROCS), starts the
// server, dials the connections and prefills over the wire, so that LEN
// counts every key.
func newKV(spec *kvSpec, in *kvInputs, traced bool) (*kvInstance, error) {
	sh, err := bench.BuildSharded(spec.family,
		bench.VariantSpec{Name: spec.variant, NoSimulatedPreemption: true},
		slotsPerShard, spec.shards)
	if err != nil {
		return nil, err
	}
	p, err := newPacer()
	if err != nil {
		return nil, err
	}
	k := &kvInstance{spec: spec, sharded: sh, base: sh.LiveNodes(), served: make(chan error, 1), pacer: p}
	backends := make([]serve.Backend, spec.shards)
	for i := range backends {
		var set sets.Set = sh.Shard(i)
		if traced {
			ts := newTracedSet(set)
			k.traced = append(k.traced, ts)
			set = ts
		}
		pool := serve.NewPool(set, serve.PoolConfig{Slots: slotsPerShard})
		k.pools = append(k.pools, pool)
		backends[i] = serve.Backend{Set: set, Pool: pool}
	}
	k.srv = serve.NewServer(serve.ServerConfig{Shards: backends, MaxKey: hohtx.MaxKey})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	var l net.Listener = ln
	if traced {
		k.nc = &netCounters{}
		l = &tracedListener{Listener: ln, nc: k.nc}
	}
	go func() { k.served <- k.srv.Serve(l) }()
	for id := 0; id < owners; id++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			k.abort()
			return nil, err
		}
		m := newModel(spec.keyRange)
		k.models = append(k.models, m)
		k.conns = append(k.conns, newWireConn(nc, id, spec.frame, in.streams[id], m))
	}
	err = k.parallel(func(c *wireConn) error {
		c.ops, c.frame = in.prefill[c.id], 1
		_, err := c.closedLoop(256, math.MaxInt64, len(c.ops))
		c.ops, c.frame = in.streams[c.id], spec.frame
		c.sendOp, c.recvOp = 0, 0
		if err == nil && c.errors+c.mismatches > 0 {
			err = fmt.Errorf("conn %d: prefill had %d errors and %d wrong replies", c.id, c.errors, c.mismatches)
		}
		return err
	})
	if err == nil {
		k.infoLine, err = k.conns[0].request("INFO")
	}
	if err != nil {
		k.abort()
		return nil, err
	}
	return k, nil
}

// parallel runs fn on every connection at once and returns the first error.
func (k *kvInstance) parallel(fn func(c *wireConn) error) error {
	errs := make([]error, len(k.conns))
	var wg sync.WaitGroup
	for i, c := range k.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (k *kvInstance) abort() {
	k.pacer.close()
	for _, c := range k.conns {
		_ = c.nc.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = k.srv.Shutdown(ctx)
	<-k.served
}

// closed runs every connection in a pipelined closed loop (64 requests
// in flight per connection) for d and returns the completed ops per second.
func (k *kvInstance) closed(d time.Duration) (float64, int64, error) {
	const inFlight = 64
	start := nanotime()
	deadline := start + int64(d)
	var mu sync.Mutex
	var frames int64
	err := k.parallel(func(c *wireConn) error {
		n, err := c.closedLoop(inFlight, deadline, -1)
		mu.Lock()
		frames += int64(n)
		mu.Unlock()
		return err
	})
	ops := frames * int64(k.spec.frame)
	return float64(ops) / (float64(nanotime()-start) / 1e9), ops, err
}

// stepResult is one open-loop step at a fixed offered rate.
type stepResult struct {
	rate             float64
	ops, failed      int64
	all, read, write hist
	backlogEnd       int64
}

// passes reports whether the step sustained its rate: no failed op, p99
// from intended send time within the limit, and a backlog at the last
// send that drains within the limit (a growing queue fails it).
func (s *stepResult) passes() bool {
	lim := float64(latencyLimit)
	return s.failed == 0 && s.all.quantile(0.99) <= lim &&
		float64(s.backlogEnd) <= s.rate*latencyLimit.Seconds()
}

// open offers rate ops/s for d in an open loop: the sender paces frames by
// the clock while one reader per connection checks replies.
func (k *kvInstance) open(rate float64, d time.Duration, res *stepResult) error {
	framesPerConn := int(rate * d.Seconds() / float64(k.spec.frame) / owners)
	if framesPerConn < 1 {
		framesPerConn = 1
	}
	period := 1e9 * float64(k.spec.frame) / rate
	t0 := nanotime() + int64(time.Millisecond)
	deadline := time.Now().Add(d + 10*time.Second)
	bad := make([]int64, len(k.conns)) // failures before this step
	for i, c := range k.conns {
		c.resetStep(true, t0, period)
		c.sent.Store(0)
		c.recvd.Store(0)
		bad[i] = c.errors + c.mismatches
		if err := c.nc.SetReadDeadline(deadline); err != nil {
			return err
		}
	}
	errs := make([]error, len(k.conns))
	var wg sync.WaitGroup
	for i, c := range k.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.readFrames(framesPerConn)
		}()
	}
	k.pr.late.reset()
	k.pr.backlogMax, k.pr.backlogEnd = 0, 0
	perr := pace(k.pacer, k.conns, t0, period, framesPerConn, &k.pr)
	if perr != nil {
		for _, c := range k.conns {
			_ = c.nc.SetReadDeadline(time.Now())
		}
	}
	wg.Wait()
	*res = stepResult{rate: rate, backlogEnd: k.pr.backlogEnd}
	for i, c := range k.conns {
		res.ops += int64(framesPerConn * k.spec.frame)
		res.failed += c.errors + c.mismatches - bad[i]
		res.all.merge(&c.all)
		res.read.merge(&c.read)
		res.write.merge(&c.write)
	}
	if perr != nil {
		return perr
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("open loop at %.0f ops/s: %w", rate, err)
		}
	}
	return nil
}

// finish drains and checks the instance: enumerated keys against the
// oracle, LEN against the oracle's count, then — after closing the pools,
// which flushes every slot — the memory books: live nodes must equal the
// sentinels plus the family's nodes per key, with nothing deferred.
func (k *kvInstance) finish() []string {
	var probs []string
	want := 0
	for _, m := range k.models {
		want += m.n
	}
	if reply, err := k.conns[0].request("LEN"); err != nil {
		probs = append(probs, "LEN: "+err.Error())
	} else if reply != strconv.Itoa(want) {
		probs = append(probs, fmt.Sprintf("LEN answered %s, oracle counts %d", reply, want))
	}
	k.abort()
	// Hazard-pointer schemes can need a second flush round: a slot's
	// retirees may be pinned by a hazard that a later slot's flush clears.
	for _, p := range k.pools {
		p.FinishAll()
	}
	probs = append(probs, checkKeys(k.sharded.Snapshot(), k.models)...)
	perKey := uint64(1)
	if k.spec.family == bench.FamilyExternalTree {
		perKey = 2 // a leaf and a routing node per key
	}
	if live, exp := k.sharded.LiveNodes(), k.base+perKey*uint64(want); live != exp {
		probs = append(probs, fmt.Sprintf("memory books: %d live nodes, want %d sentinels + %d×%d keys = %d",
			live, k.base, perKey, want, exp))
	}
	if d := k.sharded.DeferredNodes(); d != 0 {
		probs = append(probs, fmt.Sprintf("memory books: %d nodes still deferred after the flush", d))
	}
	return probs
}

// attempted and failed count every op the instance's connections sent.
func (k *kvInstance) counts() (attempted, failed int64) {
	for _, c := range k.conns {
		attempted += c.opsDone
		failed += c.errors + c.mismatches
	}
	return
}

func (k *kvInstance) mem() (uint64, uint64) {
	return k.sharded.LiveNodes(), k.sharded.DeferredNodes()
}

func (k *kvInstance) snap() layerSnap {
	s := layerSnap{at: nanotime(), rt: readRuntime()}
	if k.nc != nil {
		s.net = k.nc.snap()
	}
	for _, t := range k.traced {
		s.calls += t.calls.Load()
		s.callNs += t.callNs.Load()
		s.applies += t.applies.Load()
		s.applyNs += t.applyNs.Load()
	}
	s.tm = k.sharded.TMStats()
	s.rc = k.sharded.ReclaimStats()
	for _, p := range k.pools {
		ps := p.Stats()
		s.pool.Leases += ps.Leases
		s.pool.Waits += ps.Waits
		s.pool.WaitNs += ps.WaitNs
		s.pool.Rejections += ps.Rejections
	}
	return s
}

func (k *kvInstance) keys() int64 { return k.srv.Len() }

func (k *kvInstance) pacing() (*hist, int64) { return &k.pr.late, k.pr.backlogMax }

func (k *kvInstance) callLatencies(read, write *hist) {}

func (k *kvInstance) structure() string {
	if k.spec.family == bench.FamilyExternalTree {
		return "etree"
	}
	return "list"
}

func (k *kvInstance) callLat() *hist {
	var h hist
	for _, t := range k.traced {
		h.merge(&t.callLat)
	}
	return &h
}

func (k *kvInstance) resetCallLat() {
	for _, t := range k.traced {
		t.callLat.reset()
	}
}

// probeSamples is how many samples of its rarer op type (reads or
// writes) a probe window holds: a p99 with twenty samples beyond it, in a
// window short enough that most windows miss the host's stalls.
const probeSamples = 2000

func kvWorkload(spec *kvSpec, seed int64) *workload {
	rarer := float64(min(spec.mix.get, spec.mix.set+spec.mix.del)) / 100
	return &workload{
		setup: func(round int, traced bool) (instance, time.Duration, error) {
			in := kvGenerate(spec, roundSeed(seed, round))
			t := time.Now()
			k, err := newKV(spec, in, traced)
			if err != nil {
				return nil, 0, err
			}
			return k, time.Since(t), nil
		},
		probe:       spec.probe,
		probeWindow: time.Duration(probeSamples / (spec.probe * rarer) * float64(time.Second)),
		extraSetups: spec.extraSetups,
		closedShare: 20, kneeShare: 50,
	}
}

// infoDiffers checks that the traced server advertises what the untraced
// one does: the same INFO fields, and the same values for the fields that
// describe the configuration and capabilities rather than the traffic.
func infoDiffers(plain, traced string) []string {
	parse := func(s string) map[string]string {
		m := map[string]string{}
		for _, f := range strings.Fields(s) {
			key, val, _ := strings.Cut(f, "=")
			m[key] = val
		}
		return m
	}
	p, t := parse(plain), parse(traced)
	var keys []string
	for key := range p {
		keys = append(keys, key)
	}
	for key := range t {
		if _, ok := p[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var probs []string
	for _, key := range keys {
		pv, pok := p[key]
		tv, tok := t[key]
		switch {
		case pok != tok:
			probs = append(probs, fmt.Sprintf("INFO field %s= on only one of the untraced and traced servers", key))
		case pv != tv && configField[key]:
			probs = append(probs, fmt.Sprintf("INFO %s=%s untraced but %s=%s traced", key, pv, key, tv))
		}
	}
	return probs
}

var configField = map[string]bool{
	"variant": true, "shards": true, "slots": true, "maxbatch": true,
	"autobatch": true, "multi": true, "scan": true,
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (k *kvInstance) info() string { return k.infoLine }
