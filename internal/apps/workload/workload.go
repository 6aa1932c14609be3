// Package workload provides the stochastic drivers behind benign traffic:
// Poisson arrival processes, on/off session schedulers and line-oriented
// buffering over the event-driven TCP connections. The paper stresses that
// a diverse, realistic benign baseline (HTTP, video, FTP) is what lets the
// IDS learn "proper traffic patterns"; these helpers make the client
// behaviours bursty and heavy-tailed instead of metronomic.
package workload

import (
	"bytes"
	"strconv"
	"time"

	"ddoshield/internal/netstack"
	"ddoshield/internal/sim"
)

// Process repeatedly invokes an action with randomized inter-arrival times
// until stopped.
type Process struct {
	sched   *sim.Scheduler
	rng     *sim.RNG
	next    func() time.Duration
	action  func()
	pending sim.Event
	stopped bool
}

// NewPoisson returns a Poisson process: exponential inter-arrivals with the
// given mean, each firing action.
func NewPoisson(sched *sim.Scheduler, rng *sim.RNG, mean time.Duration, action func()) *Process {
	return &Process{
		sched:  sched,
		rng:    rng,
		next:   func() time.Duration { return time.Duration(rng.Exp(float64(mean))) },
		action: action,
	}
}

// Start schedules the first arrival. Starting a started process is a no-op.
func (p *Process) Start() {
	if !p.pending.IsZero() || p.stopped {
		return
	}
	p.schedule()
}

func (p *Process) schedule() {
	p.pending = p.sched.After(p.next(), func() {
		if p.stopped {
			return
		}
		p.action()
		if !p.stopped {
			p.schedule()
		}
	})
}

// Stop cancels all future arrivals.
func (p *Process) Stop() {
	p.stopped = true
	p.pending.Cancel()
	p.pending = sim.Event{}
}

// LineReader accumulates stream bytes and emits complete CRLF- or
// LF-terminated lines, the framing used by the FTP/telnet-style control
// protocols in the testbed.
type LineReader struct {
	buf    bytes.Buffer
	OnLine func(line string)
	// MaxLine guards against unbounded buffering (default 4096).
	MaxLine int
}

// Feed appends stream data and fires OnLine for each completed line,
// stripped of its terminator.
func (lr *LineReader) Feed(data []byte) {
	maxLine := lr.MaxLine
	if maxLine == 0 {
		maxLine = 4096
	}
	lr.buf.Write(data)
	for {
		b := lr.buf.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			if lr.buf.Len() > maxLine {
				lr.buf.Reset() // poisoned line: discard
			}
			return
		}
		line := string(bytes.TrimRight(b[:i], "\r"))
		lr.buf.Next(i + 1)
		if lr.OnLine != nil {
			lr.OnLine(line)
		}
	}
}

// AttachLines wires a LineReader to a connection's data callback and
// returns it.
func AttachLines(c *netstack.Conn, onLine func(string)) *LineReader {
	lr := &LineReader{OnLine: onLine}
	c.OnData = func(d []byte) { lr.Feed(d) }
	return lr
}

// SendNumbered queues prefix, n in decimal and suffix as one Send would,
// formatted in the connection's send buffer: the shape of every status and
// request line the testbed's protocols generate.
func SendNumbered(c *netstack.Conn, prefix string, n int, suffix string) {
	b := c.Reserve(len(prefix) + 20 + len(suffix)) // 20 digits hold any int
	b = strconv.AppendInt(append(b, prefix...), int64(n), 10)
	b = append(b, suffix...)
	c.Commit(len(b))
}

// Chunker delivers a byte stream in fixed-size chunks at a fixed interval,
// modeling a media server pushing segments at a target bitrate.
type Chunker struct {
	sched     *sim.Scheduler
	conn      *netstack.Conn
	chunkSize int
	interval  time.Duration
	remaining int
	ticker    *sim.Ticker
	OnDone    func()
}

// NewChunker streams total bytes over conn in chunkSize pieces every
// interval, then fires OnDone.
func NewChunker(sched *sim.Scheduler, conn *netstack.Conn, total, chunkSize int, interval time.Duration) *Chunker {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	ck := &Chunker{
		sched:     sched,
		conn:      conn,
		chunkSize: chunkSize,
		interval:  interval,
		remaining: total,
	}
	return ck
}

// Start begins streaming.
func (ck *Chunker) Start() {
	if ck.ticker != nil {
		return
	}
	ck.ticker = ck.sched.Every(ck.interval, func() {
		if ck.remaining <= 0 || ck.conn.State() != netstack.StateEstablished {
			ck.Stop()
			if ck.OnDone != nil {
				ck.OnDone()
			}
			return
		}
		// Media payload is zeros, written where the connection sends from.
		n := min(ck.chunkSize, ck.remaining)
		clear(ck.conn.Reserve(n)[:n])
		ck.conn.Commit(n)
		ck.remaining -= n
	})
}

// Stop halts streaming.
func (ck *Chunker) Stop() {
	if ck.ticker != nil {
		ck.ticker.Stop()
		ck.ticker = nil
	}
}

// Remaining reports bytes not yet sent.
func (ck *Chunker) Remaining() int { return ck.remaining }
