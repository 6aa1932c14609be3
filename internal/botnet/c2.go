package botnet

import (
	"fmt"
	"sort"
	"strings"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/sim"
)

// DefaultC2Port is the TCP port bots report to. The real Mirai C2 accepted
// bots on port 23; the testbed keeps the C2 on its own port so telnet scan
// traffic and C2 traffic remain distinguishable in captures.
const DefaultC2Port = 5555

// C2 is the command-and-control server: it accepts bot registrations,
// answers keepalives, broadcasts attack commands and tracks the connected
// population over time (the "number of connected bots" metric DDoSim
// reports).
type C2 struct {
	host      *netstack.Host
	bots      map[string]*botSession
	history   []PopulationSample
	intervals []AttackInterval

	commandsSent uint64
	registered   uint64
}

// PopulationSample is one point of the connected-bots timeline.
type PopulationSample struct {
	Time sim.Time
	Bots int
}

type botSession struct {
	id   string
	conn *netstack.Conn
}

// NewC2 returns an unstarted C2 on DefaultC2Port.
func NewC2() *C2 {
	return &C2{bots: make(map[string]*botSession)}
}

// Attach binds the C2 to a host and starts listening.
func (c *C2) Attach(h *netstack.Host) error {
	c.host = h
	if _, err := h.ListenTCP(DefaultC2Port, 0, c.accept); err != nil {
		return fmt.Errorf("c2: %w", err)
	}
	return nil
}

// Bots reports the currently connected bot count.
func (c *C2) Bots() int { return len(c.bots) }

// History returns the connected-bots timeline (one sample per change).
func (c *C2) History() []PopulationSample {
	out := make([]PopulationSample, len(c.history))
	copy(out, c.history)
	return out
}

// Stats reports total registrations and commands sent.
func (c *C2) Stats() (registered, commandsSent uint64) {
	return c.registered, c.commandsSent
}

func (c *C2) samplePopulation() {
	c.history = append(c.history, PopulationSample{Time: c.host.Now(), Bots: len(c.bots)})
}

func (c *C2) accept(conn *netstack.Conn) {
	var sess *botSession
	workload.AttachLines(conn, func(line string) {
		switch {
		case strings.HasPrefix(line, "REG "):
			id := strings.TrimSpace(strings.TrimPrefix(line, "REG "))
			if id == "" {
				return
			}
			if old, ok := c.bots[id]; ok && old.conn != conn {
				old.conn.Close()
			}
			sess = &botSession{id: id, conn: conn}
			c.bots[id] = sess
			c.registered++
			c.samplePopulation()
			conn.Send([]byte("OK\r\n"))
		case line == "PING":
			conn.Send([]byte("PONG\r\n"))
		}
	})
	drop := func() {
		if sess != nil && c.bots[sess.id] == sess {
			delete(c.bots, sess.id)
			c.samplePopulation()
		}
		sess = nil
	}
	conn.OnRemoteClose = func() {
		conn.Close()
		drop()
	}
	conn.OnClose = func(err error) { drop() }
}

// sessions returns the connected bots ordered by id. Iterating the bots
// map directly would let Go's randomized map order decide which bot's
// flood engine starts first, breaking the same-seed-same-packets
// guarantee (and with it byte-identical trace output).
func (c *C2) sessions() []*botSession {
	out := make([]*botSession, 0, len(c.bots))
	for _, b := range c.bots {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Broadcast sends an attack command to every connected bot, records the
// attack interval for labeling — with the duration the bots were told, see
// Command.OnWire — and returns how many bots received it.
func (c *C2) Broadcast(cmd Command) int {
	cmd = cmd.OnWire()
	line := []byte(cmd.String() + "\r\n")
	n := 0
	for _, b := range c.sessions() {
		b.conn.Send(line)
		n++
	}
	c.commandsSent += uint64(n)
	if n > 0 {
		now := c.host.Now()
		c.intervals = append(c.intervals, AttackInterval{
			Cmd:   cmd,
			Start: now,
			End:   now.Add(cmd.Duration),
			Bots:  c.BotAddrs(),
		})
	}
	return n
}
