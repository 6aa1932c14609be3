package botnet

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// TelnetPort is the service the scanner probes and the loader infects over.
const TelnetPort = 23

// credsPerConnection bounds login attempts per telnet session, matching the
// device's retry allowance. The scanner walks DefaultDictionary.
const credsPerConnection = 3

// ScanRange is one contiguous extra address block the scanner probes in
// addition to TargetRange. Fleet-scale extension planes are contiguous but
// not prefix-aligned, hence a base+count pair rather than a CIDR prefix.
type ScanRange struct {
	// Base is the first probed address of the block.
	Base packet.Addr
	// Count is how many consecutive addresses the block spans.
	Count uint32
}

// AttackerConfig tunes the scan-and-infect pipeline.
type AttackerConfig struct {
	// TargetRange is the address space the scanner probes.
	TargetRange packet.Prefix
	// ExtraRanges widens the scanner's probe space beyond TargetRange
	// (the testbed's 10.4.0.0+ extension device plane). Targets are drawn
	// uniformly over TargetRange plus every extra range; with no extras,
	// target selection is bit-for-bit the classic single-range draw.
	ExtraRanges []ScanRange
	// C2Addr is handed to infected devices in the INSTALL command, with
	// DefaultC2Port.
	C2Addr packet.Addr
	// MeanProbeInterval paces the scanner (default 500 ms between probes).
	MeanProbeInterval time.Duration
	// ReinfectCooldown is how long the loader leaves a freshly infected
	// target alone before probing it again (default 10 min). A rebooted
	// device is therefore re-conscripted on the next sweep after its
	// cooldown, not instantly.
	ReinfectCooldown time.Duration
	// Seed drives target selection.
	Seed int64
}

func (cfg AttackerConfig) withDefaults() AttackerConfig {
	if cfg.MeanProbeInterval <= 0 {
		cfg.MeanProbeInterval = 500 * time.Millisecond
	}
	if cfg.ReinfectCooldown <= 0 {
		cfg.ReinfectCooldown = 10 * time.Minute
	}
	return cfg
}

// Attacker is the scan-and-infect component: a Mirai-style telnet
// dictionary scanner plus the loader that plants the bot on cracked
// devices. It runs in the Attacker container of the testbed.
type Attacker struct {
	cfg  AttackerConfig
	host *netstack.Host
	rng  *sim.RNG
	// nextCred remembers the dictionary position per target so successive
	// probes continue where the last connection left off.
	nextCred map[packet.Addr]int
	inflight map[packet.Addr]bool
	// cooldown holds per-target instants before which re-probing is skipped.
	cooldown map[packet.Addr]sim.Time

	// OnInfected fires after a successful INSTALL.
	OnInfected func(addr packet.Addr, cred Credential)

	probes     uint64
	connects   uint64
	cracked    uint64
	infections uint64
}

// NewAttacker returns an unstarted attacker.
func NewAttacker(cfg AttackerConfig) *Attacker {
	cfg = cfg.withDefaults()
	return &Attacker{
		cfg:      cfg,
		rng:      sim.Substream(cfg.Seed, "attacker"),
		nextCred: make(map[packet.Addr]int),
		inflight: make(map[packet.Addr]bool),
		cooldown: make(map[packet.Addr]sim.Time),
	}
}

// Attach starts scanning from the given host.
func (a *Attacker) Attach(h *netstack.Host) {
	a.host = h
	workload.NewPoisson(h.Scheduler(), a.rng, a.cfg.MeanProbeInterval, a.probe).Start()
}

// Stats reports probes launched, telnet connects, credentials cracked and
// completed infections.
func (a *Attacker) Stats() (probes, connects, cracked, infections uint64) {
	return a.probes, a.connects, a.cracked, a.infections
}

// ScanSpan reports how many distinct addresses the scanner draws targets
// from: TargetRange's hosts plus every extra range. The classic
// 10.0.2.0/24 configuration spans exactly 254.
func (a *Attacker) ScanSpan() int {
	n := int(a.cfg.TargetRange.NumHosts())
	if n < 0 {
		n = 0
	}
	for _, r := range a.cfg.ExtraRanges {
		n += int(r.Count)
	}
	return n
}

// probe picks a random target and attempts the dictionary against it. The
// draw is one uniform pick over the concatenated ranges, so a single-range
// attacker consumes its RNG stream exactly as it always has.
func (a *Attacker) probe() {
	n := int(a.cfg.TargetRange.NumHosts())
	if n < 0 {
		n = 0
	}
	total := a.ScanSpan()
	if total <= 0 {
		return
	}
	k := a.rng.Intn(total)
	var target packet.Addr
	if k < n {
		target = a.cfg.TargetRange.Host(uint32(k) + 1)
	} else {
		k -= n
		for _, r := range a.cfg.ExtraRanges {
			if k < int(r.Count) {
				target = packet.AddrFromUint32(r.Base.Uint32() + uint32(k))
				break
			}
			k -= int(r.Count)
		}
	}
	if target == a.host.Addr() || target == a.cfg.C2Addr || a.inflight[target] {
		return
	}
	if until, ok := a.cooldown[target]; ok && a.host.Now() < until {
		return
	}
	start := a.nextCred[target]
	if start >= len(DefaultDictionary) {
		return // dictionary exhausted against this host
	}
	a.probes++
	a.inflight[target] = true
	creds := DefaultDictionary[start:min(start+credsPerConnection, len(DefaultDictionary))]
	sess := &telnetSession{
		host:      a.host,
		creds:     creds,
		onConnect: func() { a.connects++ },
		onShell:   func(conn *netstack.Conn) { conn.Close() },
		onDone: func(cred Credential, ok bool, tried int) {
			a.nextCred[target] = start + tried
			if !ok {
				delete(a.inflight, target)
				return
			}
			a.cracked++
			a.nextCred[target] = 0 // re-probe succeeds fast after reboot
			a.cooldown[target] = a.host.Now().Add(a.cfg.ReinfectCooldown)
			a.infect(target, cred)
		},
	}
	sess.dial(target)
}

// infect logs back into a cracked device and plants the bot.
func (a *Attacker) infect(target packet.Addr, cred Credential) {
	install := fmt.Sprintf("INSTALL %s %d", a.cfg.C2Addr, DefaultC2Port)
	sess := &telnetSession{
		host:  a.host,
		creds: []Credential{cred},
		onShell: func(conn *netstack.Conn) {
			conn.Send([]byte(install + "\r\n"))
		},
		onLine: func(conn *netstack.Conn, line string) {
			if strings.TrimSpace(line) == "OK" {
				a.infections++
				if a.OnInfected != nil {
					a.OnInfected(target, cred)
				}
				conn.Send([]byte("exit\r\n"))
				conn.Close()
			}
		},
		onDone: func(Credential, bool, int) {
			delete(a.inflight, target)
		},
	}
	sess.dial(target)
}

// telnetSession is an expect-style client for the devices' telnet service:
// it answers "login: " and "Password: " prompts from a credential list and
// detects the "$ " shell prompt.
type telnetSession struct {
	host  *netstack.Host
	creds []Credential
	// onConnect fires when the TCP connection completes.
	onConnect func()
	// onShell fires at the shell prompt (successful login).
	onShell func(conn *netstack.Conn)
	// onLine receives shell-mode output lines after login.
	onLine func(conn *netstack.Conn, line string)
	// onDone reports the final outcome exactly once: the winning credential
	// (ok=true) or failure, plus how many credentials were conclusively
	// rejected or accepted.
	onDone func(cred Credential, ok bool, tried int)

	conn     *netstack.Conn
	buf      bytes.Buffer
	idx      int
	phase    int // 0 waiting login prompt, 1 waiting password prompt, 2 waiting verdict, 3 shell
	lines    workload.LineReader
	reported bool
}

func (s *telnetSession) dial(target packet.Addr) {
	conn := s.host.DialTCP(target, TelnetPort)
	s.conn = conn
	conn.OnConnect = func() {
		if s.onConnect != nil {
			s.onConnect()
		}
	}
	conn.OnData = s.feed
	conn.OnRemoteClose = func() { conn.Close() }
	conn.OnClose = func(err error) { s.finish(Credential{}, false) }
	s.lines.OnLine = func(line string) {
		if s.onLine != nil {
			s.onLine(conn, line)
		}
	}
}

func (s *telnetSession) finish(cred Credential, ok bool) {
	if s.reported {
		return
	}
	s.reported = true
	tried := s.idx
	if ok {
		tried = s.idx + 1
	}
	if s.onDone != nil {
		s.onDone(cred, ok, tried)
	}
}

func (s *telnetSession) feed(data []byte) {
	if s.phase == 3 {
		s.lines.Feed(data)
		return
	}
	s.buf.Write(data)
	for {
		b := s.buf.Bytes()
		switch s.phase {
		case 0: // expect "login: "
			i := bytes.Index(b, []byte("login: "))
			if i < 0 {
				return
			}
			s.buf.Next(i + len("login: "))
			if s.idx >= len(s.creds) {
				s.conn.Close()
				s.finish(Credential{}, false)
				return
			}
			s.conn.Send([]byte(s.creds[s.idx].User + "\r\n"))
			s.phase = 1
		case 1: // expect "Password: "
			i := bytes.Index(b, []byte("Password: "))
			if i < 0 {
				return
			}
			s.buf.Next(i + len("Password: "))
			s.conn.Send([]byte(s.creds[s.idx].Pass + "\r\n"))
			s.phase = 2
		case 2: // expect "$ " (success) or another "login: " (failure)
			if i := bytes.Index(b, []byte("$ ")); i >= 0 {
				s.buf.Next(i + 2)
				s.phase = 3
				cred := s.creds[s.idx]
				s.finish(cred, true)
				if s.onShell != nil {
					s.onShell(s.conn)
				}
				return
			}
			if i := bytes.Index(b, []byte("incorrect")); i >= 0 {
				s.buf.Next(i + len("incorrect"))
				s.idx++
				s.phase = 0
				continue
			}
			return
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
