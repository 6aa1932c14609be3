// Package devices models the IoT device fleet (the "Devs" of the paper's
// topology): each device exposes a factory-credentialed telnet service —
// the vulnerability Mirai exploits — and runs the benign client workloads
// (HTTP browsing, video watching, FTP transfers) that the TServer's
// servers answer. Devices reboot under a churn model and come back clean,
// so the botnet must re-infect them, exactly as memory-resident Mirai must.
package devices

import (
	"fmt"
	"strconv"
	"strings"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
)

// TelnetPort is the vulnerable service's port.
const TelnetPort = 23

const maxLoginAttempts = 3

// TelnetService is the weak-credential remote shell the scanner cracks.
type TelnetService struct {
	user string
	pass string
	// OnInstall fires when an authenticated session issues
	// "INSTALL <c2-addr> <c2-port>" — the loader planting the bot.
	OnInstall func(c2 packet.Addr, port uint16)
	listener  *netstack.Listener
	hardened  bool
}

// NewTelnetService returns a service guarding a shell with one credential
// pair. An empty user hardens the device: every login fails.
func NewTelnetService(user, pass string) *TelnetService {
	return &TelnetService{user: user, pass: pass, hardened: user == ""}
}

// Attach binds the service to a host.
func (t *TelnetService) Attach(h *netstack.Host) error {
	l, err := h.ListenTCP(TelnetPort, 0, t.accept)
	if err != nil {
		return fmt.Errorf("telnet: %w", err)
	}
	t.listener = l
	return nil
}

// Detach closes the service.
func (t *TelnetService) Detach() {
	if t.listener != nil {
		t.listener.Close()
		t.listener = nil
	}
}

func (t *TelnetService) accept(c *netstack.Conn) {
	attempts := 0
	var user string
	phase := 0 // 0 awaiting user, 1 awaiting password, 2 shell
	workload.AttachLines(c, func(line string) {
		switch phase {
		case 0:
			user = line
			phase = 1
			c.Send([]byte("Password: "))
		case 1:
			if !t.hardened && user == t.user && line == t.pass {
				phase = 2
				c.Send([]byte("$ "))
				return
			}
			attempts++
			if attempts >= maxLoginAttempts {
				c.Send([]byte("Login incorrect\r\n"))
				c.Close()
				return
			}
			phase = 0
			c.Send([]byte("Login incorrect\r\nlogin: "))
		case 2:
			t.shell(c, line)
		}
	})
	c.OnRemoteClose = func() { c.Close() }
	c.Send([]byte("login: "))
}

func (t *TelnetService) shell(c *netstack.Conn, line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		c.Send([]byte("$ "))
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "INSTALL":
		if len(fields) != 3 {
			c.Send([]byte("usage: INSTALL <addr> <port>\r\n$ "))
			return
		}
		addr, err := packet.ParseAddr(fields[1])
		if err != nil {
			c.Send([]byte("bad address\r\n$ "))
			return
		}
		port, err := strconv.Atoi(fields[2])
		if err != nil || port <= 0 || port > 65535 {
			c.Send([]byte("bad port\r\n$ "))
			return
		}
		if t.OnInstall != nil {
			t.OnInstall(addr, uint16(port))
		}
		c.Send([]byte("OK\r\n$ "))
	case "EXIT":
		c.Close()
	default:
		c.Send([]byte("sh: " + fields[0] + ": not found\r\n$ "))
	}
}
