package botnet

import (
	"time"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// keepaliveInterval paces the bot's C2 PING keepalives.
const keepaliveInterval = 30 * time.Second

// reconnectDelay paces re-dials after losing the C2.
const reconnectDelay = 5 * time.Second

// Bot is the implant that runs on an infected device: it holds a C2
// session, answers keepalives, and executes flood commands.
type Bot struct {
	id     string
	host   *netstack.Host
	c2Addr packet.Addr
	c2Port uint16
	spoof  packet.Prefix
	rng    *sim.RNG

	conn      *netstack.Conn
	keepalive *sim.Ticker
	flood     *Flood
	stopped   bool

	attacksRun uint64
	pktsSent   uint64
}

// NewBot returns an unstarted bot. spoof supplies the source-address range
// its SYN/ACK floods forge.
func NewBot(id string, c2Addr packet.Addr, c2Port uint16, spoof packet.Prefix, seed int64) *Bot {
	if c2Port == 0 {
		c2Port = DefaultC2Port
	}
	return &Bot{
		id:     id,
		c2Addr: c2Addr,
		c2Port: c2Port,
		spoof:  spoof,
		rng:    sim.Substream(seed, "bot/"+id),
	}
}

// Attach starts the bot on a host: it dials the C2 and awaits commands.
func (b *Bot) Attach(h *netstack.Host) {
	b.host = h
	b.stopped = false
	b.dialC2()
}

// Detach kills the implant: the C2 session closes and any running flood
// stops (a rebooted device loses Mirai, which lives only in memory).
func (b *Bot) Detach() {
	b.stopped = true
	if b.flood != nil {
		b.pktsSent += b.flood.Sent()
		b.flood.Stop()
		b.flood = nil
	}
	if b.keepalive != nil {
		b.keepalive.Stop()
		b.keepalive = nil
	}
	if b.conn != nil {
		b.conn.Abort()
		b.conn = nil
	}
}

// Stats reports attacks executed and flood packets sent.
func (b *Bot) Stats() (attacksRun, pktsSent uint64) {
	sent := b.pktsSent
	if b.flood != nil {
		sent += b.flood.Sent()
	}
	return b.attacksRun, sent
}

func (b *Bot) dialC2() {
	if b.stopped {
		return
	}
	conn := b.host.DialTCP(b.c2Addr, b.c2Port)
	b.conn = conn
	conn.OnConnect = func() {
		conn.Send([]byte("REG " + b.id + "\r\n"))
		if b.keepalive != nil {
			b.keepalive.Stop()
		}
		b.keepalive = b.host.Scheduler().Every(keepaliveInterval, func() {
			conn.Send([]byte("PING\r\n"))
		})
	}
	workload.AttachLines(conn, func(line string) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return // OK / PONG / noise
		}
		b.execute(cmd)
	})
	conn.OnRemoteClose = func() { conn.Close() }
	conn.OnClose = func(err error) {
		if b.keepalive != nil {
			b.keepalive.Stop()
			b.keepalive = nil
		}
		if b.conn == conn {
			b.conn = nil
		}
		if !b.stopped {
			b.host.Scheduler().After(reconnectDelay, b.dialC2)
		}
	}
}

func (b *Bot) execute(cmd Command) {
	if b.flood != nil {
		b.pktsSent += b.flood.Sent()
		b.flood.Stop() // new order supersedes the old one
	}
	b.attacksRun++
	f := NewFlood(b.host, b.rng, cmd, b.spoof)
	f.OnDone = func() {
		if b.flood == f {
			b.pktsSent += f.Sent()
			b.flood = nil
		}
		if b.conn != nil {
			b.conn.Send([]byte("DONE\r\n"))
		}
	}
	b.flood = f
	f.Start()
}
