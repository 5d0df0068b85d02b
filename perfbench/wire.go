package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// The benchmark speaks the server's line protocol with its own encoder and
// parser, so a change to the server's codec moves only the server side of
// the measurement. Nothing on the steady-state path allocates: requests
// render into a reused buffer and replies are parsed in place.

var epoch = time.Now()

// nanotime is monotonic nanoseconds since the process started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// failedLatency is what a failed op records: it misses any latency limit.
const failedLatency = maxValue

var verbs = [3]string{"GET ", "SET ", "DEL "}

// wireConn is one client connection. Its sender renders requests from the
// op stream at sendOp; its reader checks replies from recvOp on, against
// the connection's model. Requests are frames of `frame` ops: plain verbs
// when frame is 1, otherwise "MULTI <frame>" followed by the body lines.
type wireConn struct {
	nc    net.Conn
	id    int
	frame int
	ops   []uint32 // cyclic op stream, generated before timing
	model *model

	sendOp, recvOp int
	wbuf           []byte
	rbuf           []byte
	rlen           int

	sent, recvd atomic.Int64 // frames, for the sender's backlog view

	// Per step, written before the reader starts.
	open      bool    // record latencies from intended send times
	t0        int64   // the step's first intended send time
	period    float64 // ns between consecutive frames of all connections
	stepFrame int     // frames completed in this step

	all, read, write   hist
	opsDone            int64
	mismatches, errors int64
}

func newWireConn(nc net.Conn, id, frame int, ops []uint32, m *model) *wireConn {
	return &wireConn{
		nc: nc, id: id, frame: frame, ops: ops, model: m,
		wbuf: make([]byte, 0, 64<<10),
		rbuf: make([]byte, 64<<10),
	}
}

// appendFrame renders the next frame of the op stream.
func (c *wireConn) appendFrame(b []byte) []byte {
	if c.frame > 1 {
		b = append(b, "MULTI "...)
		b = strconv.AppendInt(b, int64(c.frame), 10)
		b = append(b, '\n')
	}
	for i := 0; i < c.frame; i++ {
		kind, key := unpackOp(c.ops[c.sendOp])
		b = append(b, verbs[kind]...)
		b = strconv.AppendUint(b, key, 10)
		b = append(b, '\n')
		if c.sendOp++; c.sendOp == len(c.ops) {
			c.sendOp = 0
		}
	}
	return b
}

// intended is the scheduled send time of this step's frame f.
func (c *wireConn) intended(f int) int64 {
	return c.t0 + int64(float64(owners*f+c.id)*c.period)
}

// readFrames reads until n more frames are fully answered, checking every
// reply. A read error (including the step deadline) ends it early.
func (c *wireConn) readFrames(n int) error {
	k := 0 // replies seen in the current frame
	for done := 0; done < n; {
		m, err := c.nc.Read(c.rbuf[c.rlen:])
		now := nanotime()
		c.rlen += m
		start := 0
		for i := 0; i < c.rlen && done < n; i++ {
			if c.rbuf[i] != '\n' {
				continue
			}
			line := c.rbuf[start:i]
			start = i + 1
			ops := 1
			if len(line) == 1 && (line[0] == '1' || line[0] == '0') {
				if !c.model.apply(c.ops[c.recvOp], line[0] == '1') {
					c.mismatches++
				}
				c.record(now, c.ops[c.recvOp]&3 == 0, false)
			} else {
				// ERR: a rejected MULTI answers one line for the whole frame.
				if k == 0 {
					ops = c.frame
				}
				c.errors += int64(ops)
				for j := 0; j < ops; j++ {
					c.record(now, c.ops[(c.recvOp+j)%len(c.ops)]&3 == 0, true)
				}
			}
			c.recvOp = (c.recvOp + ops) % len(c.ops)
			if k += ops; k >= c.frame {
				k = 0
				done++
				c.stepFrame++
				c.recvd.Add(1)
			}
		}
		c.rlen = copy(c.rbuf, c.rbuf[start:c.rlen])
		if c.rlen == len(c.rbuf) {
			return errors.New("reply line longer than the read buffer")
		}
		if err != nil && (k != 0 || done < n) {
			return err
		}
	}
	return nil
}

func (c *wireConn) record(now int64, isRead, failed bool) {
	c.opsDone++
	if !c.open {
		return
	}
	lat := uint64(failedLatency)
	if !failed {
		lat = uint64(now - c.intended(c.stepFrame))
	}
	c.all.record(lat)
	if isRead {
		c.read.record(lat)
	} else {
		c.write.record(lat)
	}
}

func (c *wireConn) resetStep(open bool, t0 int64, period float64) {
	c.open, c.t0, c.period, c.stepFrame = open, t0, period, 0
	c.all.reset()
	c.read.reset()
	c.write.reset()
}

// closedLoop keeps window frames in flight (write window, read window)
// until the deadline or until limit frames have been answered (limit < 0:
// no limit). It returns the frames answered.
func (c *wireConn) closedLoop(window int, deadline int64, limit int) (int, error) {
	c.resetStep(false, 0, 0)
	done := 0
	for nanotime() < deadline && (limit < 0 || done < limit) {
		w := window
		if limit >= 0 && limit-done < w {
			w = limit - done
		}
		for i := 0; i < w; i++ {
			c.wbuf = c.appendFrame(c.wbuf)
		}
		_, err := c.nc.Write(c.wbuf)
		c.wbuf = c.wbuf[:0]
		if err != nil {
			return done, fmt.Errorf("conn %d write: %w", c.id, err)
		}
		if err := c.readFrames(w); err != nil {
			return done, fmt.Errorf("conn %d read: %w", c.id, err)
		}
		done += w
	}
	return done, nil
}

// request sends one control line (LEN, INFO) and returns its reply line.
// It is only used while no other traffic is in flight.
func (c *wireConn) request(line string) (string, error) {
	if _, err := c.nc.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	br := bufio.NewReader(c.nc)
	reply, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if br.Buffered() != 0 {
		return "", fmt.Errorf("%s: unexpected extra reply bytes", line)
	}
	return reply[:len(reply)-1], nil
}

// paceResult is what the open-loop sender saw during one step.
type paceResult struct {
	late       hist  // how late each send burst left, from its earliest intended time
	backlogMax int64 // ops in flight, maximum over bursts
	backlogEnd int64 // ops in flight when the last frame was sent
}

// minPace is the shortest the sender sleeps: at high rates it sends the
// frames due in each 20 µs as one burst instead of waking per frame.
const minPace = 20 * time.Microsecond

// pace is the open-loop sender: frame g of the step (all connections
// interleaved) is due at t0 + g·period, whatever the replies do. It sends
// every due frame in one write per connection and sleeps until the next.
func pace(p *pacer, conns []*wireConn, t0 int64, period float64, framesPerConn int, pr *paceResult) error {
	total := framesPerConn * len(conns)
	frame := int64(conns[0].frame)
	for g := 0; g < total; {
		now := nanotime()
		due := t0 + int64(float64(g)*period)
		if due > now {
			wait := time.Duration(due - now)
			if wait < minPace {
				wait = minPace
			}
			if err := p.sleep(wait); err != nil {
				return err
			}
			continue
		}
		first := due
		for g < total && t0+int64(float64(g)*period) <= now {
			c := conns[g%len(conns)]
			c.wbuf = c.appendFrame(c.wbuf)
			c.sent.Add(1)
			g++
		}
		for _, c := range conns {
			if len(c.wbuf) == 0 {
				continue
			}
			if _, err := c.nc.Write(c.wbuf); err != nil {
				return fmt.Errorf("conn %d write: %w", c.id, err)
			}
			c.wbuf = c.wbuf[:0]
		}
		pr.late.record(uint64(now - first))
		var backlog int64
		for _, c := range conns {
			backlog += (c.sent.Load() - c.recvd.Load()) * frame
		}
		if backlog > pr.backlogMax {
			pr.backlogMax = backlog
		}
		pr.backlogEnd = backlog
	}
	return nil
}
