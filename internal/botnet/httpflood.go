package botnet

import (
	"fmt"
	"strings"

	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// AttackHTTP is the application-level GET flood the paper's §IV-D
// deliberately excludes ("more complex application-level attacks like
// HTTP Flood ... necessitate additional application-level analysis") and
// §V lists among the threats a fuller testbed should cover. Unlike the
// raw-frame vectors, an HTTP flood opens real TCP connections from the
// bot's own address and issues well-formed requests — traffic that is
// protocol-indistinguishable from benign browsing at the header level,
// which is exactly what makes it the hard case for the IDS.
const AttackHTTP AttackType = 4

// Engine is a runnable attack: the raw-frame Flood and the HTTPFlood both
// implement it, and the bot drives either through this interface.
type Engine interface {
	// Start begins the attack.
	Start()
	// Stop halts it immediately.
	Stop()
	// Sent reports attack units emitted (packets or requests).
	Sent() uint64
	// SetOnDone installs the completion callback.
	SetOnDone(fn func())
}

var (
	_ Engine = (*Flood)(nil)
	_ Engine = (*HTTPFlood)(nil)
)

// SetOnDone implements Engine for the raw-frame flood.
func (f *Flood) SetOnDone(fn func()) { f.OnDone = fn }

// HTTPFlood issues GET requests over real TCP connections at a target
// rate. Each request is a fresh short-lived connection, the classic GET
// flood that exhausts server backlogs and worker pools.
type HTTPFlood struct {
	host   *netstack.Host
	rng    *sim.RNG
	cmd    Command
	ticker *sim.Ticker
	ends   sim.Time
	onDone func()

	requests uint64
}

// NewHTTPFlood prepares (but does not start) an HTTP GET flood. cmd.PPS is
// interpreted as requests per second; cmd.Port 0 defaults to 80.
func NewHTTPFlood(host *netstack.Host, rng *sim.RNG, cmd Command) *HTTPFlood {
	if cmd.Port == 0 {
		cmd.Port = 80
	}
	return &HTTPFlood{host: host, rng: rng, cmd: cmd}
}

// Sent reports requests issued so far.
func (h *HTTPFlood) Sent() uint64 { return h.requests }

// SetOnDone implements Engine.
func (h *HTTPFlood) SetOnDone(fn func()) { h.onDone = fn }

// Start begins issuing requests.
func (h *HTTPFlood) Start() {
	if h.ticker != nil {
		return
	}
	h.ends = h.host.Now().Add(h.cmd.Duration)
	perTick := float64(h.cmd.PPS) * floodBatchInterval.Seconds()
	var credit float64
	h.ticker = h.host.Scheduler().Every(floodBatchInterval, func() {
		if h.host.Now() >= h.ends {
			h.Stop()
			if h.onDone != nil {
				h.onDone()
			}
			return
		}
		credit += perTick
		for ; credit >= 1; credit-- {
			h.request()
		}
	})
}

// Stop halts the flood; in-flight requests abort.
func (h *HTTPFlood) Stop() {
	if h.ticker != nil {
		h.ticker.Stop()
		h.ticker = nil
	}
}

// request issues one GET over a fresh connection.
func (h *HTTPFlood) request() {
	h.requests++
	conn := h.host.DialTCP(h.cmd.Target, h.cmd.Port)
	path := fmt.Sprintf("/?%d", h.rng.Uint32())
	conn.OnConnect = func() {
		conn.Send([]byte("GET " + path + " HTTP/1.1\r\nHost: target\r\n\r\n"))
	}
	responded := false
	conn.OnData = func(d []byte) {
		if !responded {
			responded = true
			// A GET flood doesn't wait for the body: sever immediately to
			// free the local port and maximize server-side churn.
			conn.Abort()
		}
	}
	conn.OnRemoteClose = func() { conn.Close() }
}

// httpTypeName is the wire token of the extended vector.
const httpTypeName = "http"

// attackTypeName resolves extended names (keeps the original switch
// untouched for the three paper vectors).
func attackTypeName(a AttackType) (string, bool) {
	if a == AttackHTTP {
		return httpTypeName, true
	}
	return "", false
}

// parseExtendedAttackType resolves extended names.
func parseExtendedAttackType(s string) (AttackType, bool) {
	if strings.EqualFold(s, httpTypeName) {
		return AttackHTTP, true
	}
	return 0, false
}

// BotAddrs exposes the connected bots' remote addresses (used by the
// interval-based labeler for application-level attacks).
func (c *C2) BotAddrs() []packet.Addr {
	out := make([]packet.Addr, 0, len(c.bots))
	for _, s := range c.sessions() {
		addr, _ := s.conn.RemoteAddr()
		out = append(out, addr)
	}
	return out
}

// AttackInterval records one broadcast attack: its command, time span and
// the bots that received it. Application-level vectors (HTTP) cannot be
// labeled from headers alone; the testbed labels them by interval+source.
type AttackInterval struct {
	Cmd   Command
	Start sim.Time
	End   sim.Time
	Bots  []packet.Addr
}

// Intervals returns the recorded attack history.
func (c *C2) Intervals() []AttackInterval {
	out := make([]AttackInterval, len(c.intervals))
	copy(out, c.intervals)
	return out
}
