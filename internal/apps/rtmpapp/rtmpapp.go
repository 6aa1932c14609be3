// Package rtmpapp implements the Nginx-RTMP analog of the TServer and its
// client workload: a streaming server on port 1935 that, on a PLAY request,
// pushes media chunks at a constant bitrate for the stream's duration, and
// a client that watches streams in an on/off loop. This is the video
// component of the paper's benign-traffic mix; it contributes long-lived,
// high-volume, steadily paced flows — the opposite signature of a flood —
// which is what makes it a useful benign baseline.
package rtmpapp

import (
	"fmt"
	"strings"
	"time"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// DefaultPort is the RTMP port.
const DefaultPort = 1935

// chunkBytes is the granularity a stream is pushed at.
const chunkBytes = 4 << 10

// ServerConfig tunes the streaming server.
type ServerConfig struct {
	// BitrateBps is the media bitrate (default 2 Mb/s).
	BitrateBps int64
	// MeanStreamDur is the mean stream length (default 30 s), exponential.
	MeanStreamDur time.Duration
	// Seed drives stream durations.
	Seed int64
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.BitrateBps <= 0 {
		cfg.BitrateBps = 2_000_000
	}
	if cfg.MeanStreamDur <= 0 {
		cfg.MeanStreamDur = 30 * time.Second
	}
	return cfg
}

// Server is the Nginx-RTMP analog.
type Server struct {
	cfg  ServerConfig
	rng  *sim.RNG
	host *netstack.Host

	streams  uint64
	bytesOut uint64
}

// NewServer returns an unstarted streaming server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg.withDefaults(), rng: sim.Substream(cfg.Seed, "rtmpapp/server")}
}

// Attach binds the server to a host and starts listening.
func (s *Server) Attach(h *netstack.Host) error {
	s.host = h
	if _, err := h.ListenTCP(DefaultPort, 0, s.accept); err != nil {
		return fmt.Errorf("rtmpapp: %w", err)
	}
	return nil
}

// Stats reports streams served and media bytes pushed.
func (s *Server) Stats() (streams, bytesOut uint64) { return s.streams, s.bytesOut }

func (s *Server) accept(c *netstack.Conn) {
	workload.AttachLines(c, func(line string) {
		if !strings.HasPrefix(strings.ToUpper(line), "PLAY") {
			c.Send([]byte("ERROR unknown command\r\n"))
			return
		}
		s.startStream(c)
	})
	c.OnRemoteClose = func() { c.Close() }
}

func (s *Server) startStream(c *netstack.Conn) {
	s.streams++
	dur := time.Duration(s.rng.Exp(float64(s.cfg.MeanStreamDur)))
	if dur < time.Second {
		dur = time.Second
	}
	total := int(s.cfg.BitrateBps / 8 * int64(dur) / int64(time.Second))
	interval := time.Duration(int64(chunkBytes) * 8 * int64(time.Second) / s.cfg.BitrateBps)
	workload.SendNumbered(c, "OK stream bytes=", total, "\r\n")
	ck := workload.NewChunker(s.host.Scheduler(), c, total, chunkBytes, interval)
	sent := total
	ck.OnDone = func() {
		s.bytesOut += uint64(sent - ck.Remaining())
		c.Close()
	}
	ck.Start()
}

// Client watches streams in an on/off loop: dial, PLAY, consume until the
// server closes, think, repeat.
type Client struct {
	host      *netstack.Host
	server    packet.Addr
	meanThink time.Duration
	proc      *workload.Process
	rng       *sim.RNG
	watching  bool

	plays    uint64
	finished uint64
	bytesIn  uint64
}

// NewClient returns an unstarted viewer workload. meanThink is the pause
// between streams (default 5 s).
func NewClient(server packet.Addr, meanThink time.Duration, seed int64) *Client {
	if meanThink <= 0 {
		meanThink = 5 * time.Second
	}
	return &Client{
		server:    server,
		meanThink: meanThink,
		rng:       sim.Substream(seed, "rtmpapp/client"),
	}
}

// Attach binds the viewer to a host and starts the watch loop.
func (c *Client) Attach(h *netstack.Host) {
	c.host = h
	c.proc = workload.NewPoisson(h.Scheduler(), c.rng, c.meanThink, c.play)
	c.proc.Start()
}

// Detach stops the watch loop (a stream in progress plays out).
func (c *Client) Detach() {
	if c.proc != nil {
		c.proc.Stop()
		c.proc = nil
	}
}

// Stats reports plays started, streams finished, and media bytes received.
func (c *Client) Stats() (plays, finished, bytesIn uint64) {
	return c.plays, c.finished, c.bytesIn
}

func (c *Client) play() {
	if c.watching {
		return // one stream at a time per viewer
	}
	c.watching = true
	c.plays++
	conn := c.host.DialTCP(c.server, DefaultPort)
	conn.OnConnect = func() {
		workload.SendNumbered(conn, "PLAY stream", c.rng.Intn(50), "\r\n")
	}
	conn.OnData = func(d []byte) { c.bytesIn += uint64(len(d)) }
	conn.OnRemoteClose = func() {
		c.finished++
		conn.Close()
	}
	conn.OnClose = func(err error) { c.watching = false }
}
