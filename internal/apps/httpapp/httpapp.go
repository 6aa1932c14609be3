// Package httpapp implements the Apache analog of the TServer and its
// client workload: a minimal HTTP/1.1 server over the simulated TCP stack
// that answers GETs with configurable object sizes, and a client that
// fetches objects with Poisson think times over short-lived connections —
// the benign web traffic of the paper's benign-traffic mix.
package httpapp

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// DefaultPort is the HTTP port the TServer listens on.
const DefaultPort = 80

// ServerConfig tunes the HTTP server.
type ServerConfig struct {
	// MeanObjectBytes is the mean response body size (default 8 KiB);
	// actual sizes are drawn from a bounded Pareto (heavy-tailed, like
	// real web objects).
	MeanObjectBytes int
	// Seed drives the size distribution.
	Seed int64
}

// Server is the Apache analog.
type Server struct {
	cfg      ServerConfig
	rng      *sim.RNG
	listener *netstack.Listener

	requests uint64
	bytesOut uint64
}

// NewServer returns an unstarted HTTP server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MeanObjectBytes <= 0 {
		cfg.MeanObjectBytes = 8 << 10
	}
	return &Server{cfg: cfg, rng: sim.Substream(cfg.Seed, "httpapp/server")}
}

// Attach binds the server to a host's stack and starts listening.
func (s *Server) Attach(h *netstack.Host) error {
	l, err := h.ListenTCP(DefaultPort, 0, s.accept)
	if err != nil {
		return fmt.Errorf("httpapp: %w", err)
	}
	s.listener = l
	return nil
}

// Detach stops accepting connections.
func (s *Server) Detach() {
	if s.listener != nil {
		s.listener.Close()
		s.listener = nil
	}
}

// Stats reports requests served and body bytes sent.
func (s *Server) Stats() (requests, bytesOut uint64) { return s.requests, s.bytesOut }

// Listener exposes the underlying TCP listener (for backlog statistics
// under attack).
func (s *Server) Listener() *netstack.Listener { return s.listener }

var headerEnd = []byte("\r\n\r\n")

// headBuffer holds the head of a request or response header that did not
// arrive whole in one segment. One normally does, and is then parsed where
// it lies in the segment; the buffer stays empty.
type headBuffer []byte

// with returns everything received of the header so far, d included.
func (h *headBuffer) with(d []byte) []byte {
	if len(*h) == 0 {
		return d
	}
	*h = append(*h, d...)
	return *h
}

// hold keeps what with last returned for the next segment to complete. It
// copies: a segment is valid only during the OnData call that delivers it.
func (h *headBuffer) hold(d []byte) {
	if len(*h) == 0 {
		*h = append(*h, d...)
	}
}

// maxRequestHead bounds a request head still waiting for its blank line.
const maxRequestHead = 8192

// request takes the next segment of a request. Once the head is whole it
// returns the request line (ok), which may lie in d itself and is valid only
// until the next call; tooLong reports a head that ran past maxRequestHead
// without completing.
func (h *headBuffer) request(d []byte) (line []byte, ok, tooLong bool) {
	req := h.with(d)
	if !bytes.Contains(req, headerEnd) {
		if len(req) > maxRequestHead {
			return nil, false, true
		}
		h.hold(d)
		return nil, false, false
	}
	*h = (*h)[:0]
	line, _, _ = bytes.Cut(req, headerEnd[:2])
	return line, true, false
}

// response takes the next segment of a response. Once the head is whole it
// returns the Content-Length the head declares and how many body bytes
// came with it (ok).
func (h *headBuffer) response(d []byte) (contentLength, body int, ok bool) {
	head := h.with(d)
	end := bytes.Index(head, headerEnd)
	if end < 0 {
		h.hold(d)
		return 0, 0, false
	}
	return parseContentLength(head[:end]), len(head) - end - len(headerEnd), true
}

func (s *Server) accept(c *netstack.Conn) {
	var partial headBuffer
	c.OnData = func(d []byte) {
		line, ok, tooLong := partial.request(d)
		switch {
		case tooLong:
			c.Abort()
		case ok:
			s.respond(c, line)
		}
	}
	c.OnRemoteClose = func() { c.Close() }
}

const (
	badRequest     = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
	okHeaderPrefix = "HTTP/1.1 200 OK\r\nServer: tserver-apache\r\nContent-Length: "
	// okHeaderMax bounds the 200 header: prefix, a size of up to seven
	// digits (bodies stop at 1 MiB), blank line.
	okHeaderMax = len(okHeaderPrefix) + 7 + len("\r\n\r\n")
)

// isGET reports whether the request line's first field is GET and a second
// field follows it.
func isGET(line []byte) bool {
	if len(line) > 4 && string(line[:4]) == "GET " && line[4] > ' ' && line[4] < 0x80 {
		return true // the well-formed case, decided without splitting
	}
	fields := bytes.Fields(line)
	return len(fields) >= 2 && string(fields[0]) == "GET"
}

func (s *Server) respond(c *netstack.Conn, requestLine []byte) {
	if !isGET(requestLine) {
		c.Send([]byte(badRequest))
		c.Close()
		return
	}
	s.requests++
	// Heavy-tailed object size, bounded to keep single responses sane.
	size := int(s.rng.Pareto(float64(s.cfg.MeanObjectBytes)/3, 1.5))
	if size > 1<<20 {
		size = 1 << 20
	}
	// Header and body are generated side by side in the connection's send
	// buffer, but queued one after the other: the header leaves as its own
	// pushed segment before the body's first.
	b := c.Reserve(okHeaderMax + size)
	b = strconv.AppendInt(append(b, okHeaderPrefix...), int64(size), 10)
	b = append(b, headerEnd...)
	s.rng.Bytes(b[len(b) : len(b)+size])
	s.bytesOut += uint64(size)
	c.Commit(len(b))
	c.Commit(size)
	// HTTP/1.0-style: close after the response; clients open fresh
	// connections per object, producing the short-lived-connection pattern
	// the IDS features examine.
	c.Close()
}

// Client fetches objects from the server in a Poisson loop, one short-lived
// connection per object.
type Client struct {
	host      *netstack.Host
	server    packet.Addr
	port      uint16
	meanThink time.Duration
	proc      *workload.Process
	rng       *sim.RNG

	fetches   uint64
	completed uint64
	failed    uint64
	bytesIn   uint64
}

// NewClient returns an unstarted client that will fetch from server:port
// with exponential think times of the given mean (default 2 s).
func NewClient(server packet.Addr, port uint16, meanThink time.Duration, seed int64) *Client {
	if port == 0 {
		port = DefaultPort
	}
	if meanThink <= 0 {
		meanThink = 2 * time.Second
	}
	return &Client{
		server:    server,
		port:      port,
		meanThink: meanThink,
		rng:       sim.Substream(seed, "httpapp/client"),
	}
}

// Attach binds the client to a host and starts the fetch loop.
func (c *Client) Attach(h *netstack.Host) {
	c.host = h
	c.proc = workload.NewPoisson(h.Scheduler(), c.rng, c.meanThink, c.fetch)
	c.proc.Start()
}

// Detach stops the fetch loop (in-flight fetches finish naturally).
func (c *Client) Detach() {
	if c.proc != nil {
		c.proc.Stop()
		c.proc = nil
	}
}

// Stats reports fetches started, completed, failed and body bytes received.
func (c *Client) Stats() (fetches, completed, failed, bytesIn uint64) {
	return c.fetches, c.completed, c.failed, c.bytesIn
}

// fetch is one GET in flight: the connection's callbacks and the response
// parser's state, in one allocation.
type fetch struct {
	client   *Client
	conn     *netstack.Conn
	object   int
	partial  headBuffer
	inBody   bool
	expected int
	got      int
}

func (c *Client) fetch() {
	c.fetches++
	f := &fetch{client: c, conn: c.host.DialTCP(c.server, c.port), object: c.rng.Intn(1000)}
	f.conn.OnConnect = f.request
	f.conn.OnData = f.onData
	f.conn.OnRemoteClose = f.conn.Close
	f.conn.OnClose = f.onClose
}

func (f *fetch) request() {
	workload.SendNumbered(f.conn, "GET /obj/", f.object, " HTTP/1.1\r\nHost: tserver\r\n\r\n")
}

func (f *fetch) onData(d []byte) {
	if !f.inBody {
		expected, got, ok := f.partial.response(d)
		if !ok {
			return
		}
		f.expected, f.got = expected, got
		f.inBody = true
		f.partial = nil
	} else {
		f.got += len(d)
	}
	f.client.bytesIn += uint64(len(d))
	if f.got >= f.expected {
		f.client.completed++
		f.conn.Close()
	}
}

func (f *fetch) onClose(err error) {
	if err != nil {
		f.client.failed++
	}
}

var contentLength = []byte("Content-Length: ")

func parseContentLength(header []byte) int {
	for len(header) > 0 {
		var line []byte
		line, header, _ = bytes.Cut(header, headerEnd[:2])
		if v, ok := bytes.CutPrefix(line, contentLength); ok {
			if n, err := strconv.Atoi(string(bytes.TrimSpace(v))); err == nil {
				return n
			}
		}
	}
	return 0
}
