package main

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// The decorator must present every optional interface serve.NewServer
// asserts, or the traced server would advertise less than the untraced one.
var (
	_ sets.MemoryReporter                       = (*tracedSet)(nil)
	_ sets.Ascender                             = (*tracedSet)(nil)
	_ interface{ CanAscend() bool }             = (*tracedSet)(nil)
	_ interface{ ObsDomain() *obs.Domain }      = (*tracedSet)(nil)
	_ interface{ TMStats() stm.Stats }          = (*tracedSet)(nil)
	_ interface{ ReclaimStats() reclaim.Stats } = (*tracedSet)(nil)
	_ interface{ TxCommits() uint64 }           = (*tracedSet)(nil)
	_ interface{ TxAborts() uint64 }            = (*tracedSet)(nil)
	_ interface{ TxSerial() uint64 }            = (*tracedSet)(nil)
	_ net.Conn                                  = (*tracedConn)(nil)
)

func TestTracedServerAdvertisesTheSame(t *testing.T) {
	for name, spec := range kvSpecs {
		in := kvGenerate(spec, 1)
		var infos [2]string
		for i, traced := range []bool{false, true} {
			k, err := newKV(spec, in, traced)
			if err != nil {
				t.Fatal(err)
			}
			infos[i] = k.info()
			if _, _, err := k.closed(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if p := k.finish(); len(p) != 0 {
				t.Fatalf("%s traced=%v: %v", name, traced, p)
			}
			if _, f := k.counts(); f != 0 {
				t.Fatalf("%s traced=%v: %d failed ops", name, traced, f)
			}
		}
		if p := infoDiffers(infos[0], infos[1]); len(p) != 0 {
			t.Fatalf("%s: %v\nuntraced: %s\ntraced:   %s", name, p, infos[0], infos[1])
		}
	}
}

func TestInfoDiffers(t *testing.T) {
	plain := "variant=RR-V shards=1 slots=2 keys=5 multi=atomic scan=atomic-window"
	if p := infoDiffers(plain, "variant=RR-V shards=1 slots=2 keys=9 multi=atomic scan=atomic-window"); len(p) != 0 {
		t.Fatalf("a traffic field differing was reported: %v", p)
	}
	if p := infoDiffers(plain, "variant=RR-V shards=1 slots=2 keys=5 multi=atomic scan=none"); len(p) != 1 {
		t.Fatalf("scan= differing: %v", p)
	}
	if p := infoDiffers(plain, "variant=RR-V shards=1 slots=2 keys=5 multi=atomic"); len(p) != 1 {
		t.Fatalf("a missing field: %v", p)
	}
}

// The end-of-run checks must catch a structure that disagrees with the
// oracle, and books that do not balance.
func TestFinishCatchesDisagreement(t *testing.T) {
	spec := kvSpecs["kv-multi"]
	k, err := newKV(spec, kvGenerate(spec, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	// A key inserted behind the server's back: the enumeration, LEN and
	// the live-node books all disagree with the oracle.
	var missing uint64
	for key := uint64(1); key <= uint64(spec.keyRange); key++ {
		if !k.models[key%owners].present[key] {
			missing = key
			break
		}
	}
	shard := k.sharded.ShardFor(missing)
	slot, err := k.pools[shard].Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	k.sharded.Shard(shard).Insert(slot, missing)
	k.pools[shard].Release(slot)
	if p := k.finish(); len(p) < 2 {
		t.Fatalf("finish reported %v for a key the oracle never acknowledged", p)
	}

	prefill, streams := libGenerate(3)
	l, err := newLib(prefill, streams, false)
	if err != nil {
		t.Fatal(err)
	}
	l.workers[0].model.present[2], l.workers[0].model.present[4] = !l.workers[0].model.present[2], !l.workers[0].model.present[4]
	if p := l.finish(); len(p) == 0 {
		t.Fatal("lib-list finish passed against a corrupted oracle")
	}
}

// The client shares a process with the server, so it must not allocate
// in steady state or runtime.allocs_per_op would count it. The server
// here is a stub that answers every line with "0", so that only the
// client's allocations are counted.
func TestClientDoesNotAllocate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		defer sc.Close()
		in := make([]byte, 64<<10)
		out := make([]byte, 0, 128<<10)
		for {
			n, err := sc.Read(in)
			if err != nil {
				return
			}
			for _, b := range in[:n] {
				if b == '\n' {
					out = append(out, '0', '\n')
				}
			}
			if _, err := sc.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ops := genOps(rand.New(rand.NewSource(4)), 0, 1024, streamLen, mix{90, 5, 5})
	c := newWireConn(nc, 0, 1, ops, newModel(1024))
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	if a := testing.AllocsPerRun(50, func() {
		if _, err := c.closedLoop(64, 1<<62, 64); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("closed loop: %v allocations per 64 requests", a)
	}
	var pr paceResult
	conns := []*wireConn{c}
	if a := testing.AllocsPerRun(20, func() {
		t0 := nanotime()
		c.resetStep(true, t0, 50000)
		if err := pace(p, conns, t0, 50000, 8, &pr); err != nil {
			t.Fatal(err)
		}
		if err := c.readFrames(8); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("open loop: %v allocations per 8 paced requests", a)
	}
	if c.opsDone == 0 || c.errors != 0 {
		t.Fatalf("%d ops answered, %d errors", c.opsDone, c.errors)
	}
}

func TestPerLayerFillsEveryMetric(t *testing.T) {
	for _, structure := range []string{"etree", "list"} {
		m := perLayer(layerSnap{}, layerSnap{at: 1e9}, layerInputs{
			structure: structure, ops: 100, callLat: &hist{}, smp: &sampler{},
		})
		if len(m) != len(perLayerUnits) {
			t.Errorf("%s: perLayer computes %d metrics, %d are declared", structure, len(m), len(perLayerUnits))
		}
		for _, l := range perLayerUnits {
			if _, ok := m[l.name]; !ok {
				t.Errorf("%s: %s is never computed", structure, l.name)
			}
		}
	}
}
