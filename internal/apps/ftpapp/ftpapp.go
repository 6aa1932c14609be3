// Package ftpapp implements the customized FTP server of the TServer and
// its client workload: a control channel on port 21 speaking a USER/PASS/
// PASV/RETR/QUIT subset with real reply codes, and per-transfer passive
// data connections — the file-transfer component of the paper's benign mix.
// FTP's two-channel structure gives the benign baseline flows on high,
// short-lived ports, which exercises the IDS's port-entropy features from
// the benign side.
package ftpapp

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ddoshield/internal/apps/workload"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// DefaultPort is the FTP control port.
const DefaultPort = 21

// ServerConfig tunes the FTP server.
type ServerConfig struct {
	// MeanFileBytes is the mean RETR transfer size (default 64 KiB),
	// drawn from a bounded Pareto.
	MeanFileBytes int
	// Seed drives transfer sizes.
	Seed int64
	// Users maps accepted usernames to passwords; empty accepts anonymous
	// with any password.
	Users map[string]string
}

// Server is the customized FTP server.
type Server struct {
	cfg      ServerConfig
	rng      *sim.RNG
	host     *netstack.Host
	dataPort uint16

	logins    uint64
	transfers uint64
	bytesOut  uint64
	authFails uint64
}

// NewServer returns an unstarted FTP server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MeanFileBytes <= 0 {
		cfg.MeanFileBytes = 64 << 10
	}
	return &Server{cfg: cfg, rng: sim.Substream(cfg.Seed, "ftpapp/server"), dataPort: 20000}
}

// Attach binds the server to a host and starts listening on the control port.
func (s *Server) Attach(h *netstack.Host) error {
	s.host = h
	if _, err := h.ListenTCP(DefaultPort, 0, s.accept); err != nil {
		return fmt.Errorf("ftpapp: %w", err)
	}
	return nil
}

// Stats reports successful logins, completed transfers, payload bytes sent
// and failed authentications.
func (s *Server) Stats() (logins, transfers, bytesOut, authFails uint64) {
	return s.logins, s.transfers, s.bytesOut, s.authFails
}

type session struct {
	srv  *Server
	ctrl *netstack.Conn
	user string
	auth bool
}

func (s *Server) accept(c *netstack.Conn) {
	sess := &session{srv: s, ctrl: c}
	workload.AttachLines(c, sess.handleLine)
	c.OnRemoteClose = func() { c.Close() }
	sess.reply("220 tserver FTP ready")
}

// reply sends one control-channel line.
func (ss *session) reply(line string) {
	b := ss.ctrl.Reserve(len(line) + 2)
	b = append(append(b, line...), "\r\n"...)
	ss.ctrl.Commit(len(b))
}

func (ss *session) handleLine(line string) {
	cmd, arg, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "USER":
		ss.user = arg
		ss.reply("331 password required")
	case "PASS":
		if ss.authenticate(ss.user, arg) {
			ss.auth = true
			ss.srv.logins++
			ss.reply("230 logged in")
		} else {
			ss.srv.authFails++
			ss.reply("530 login incorrect")
		}
	case "PASV":
		if !ss.auth {
			ss.reply("530 not logged in")
			return
		}
		ss.openPassive()
	case "RETR":
		ss.reply("550 use PASV before RETR")
	case "QUIT":
		ss.reply("221 goodbye")
		ss.ctrl.Close()
	default:
		ss.reply("502 command not implemented")
	}
}

func (ss *session) authenticate(user, pass string) bool {
	users := ss.srv.cfg.Users
	if len(users) == 0 {
		return true
	}
	want, ok := users[user]
	return ok && want == pass
}

// openPassive binds an ephemeral data port, announces it with a 227 reply,
// and serves exactly one RETR over it.
func (ss *session) openPassive() {
	s := ss.srv
	var dataListener *netstack.Listener
	var port uint16
	for tries := 0; tries < 100; tries++ {
		s.dataPort++
		if s.dataPort < 20000 {
			s.dataPort = 20000
		}
		l, err := s.host.ListenTCP(s.dataPort, 0, nil)
		if err == nil {
			dataListener = l
			port = s.dataPort
			break
		}
	}
	if dataListener == nil {
		ss.reply("425 cannot open data connection")
		return
	}
	addr := s.host.Addr()
	const passive = "227 entering passive mode ("
	b := ss.ctrl.Reserve(len(passive) + 6*4 + 2)
	b = append(b, passive...)
	for _, v := range [6]byte{addr[0], addr[1], addr[2], addr[3], byte(port >> 8), byte(port)} {
		b = append(strconv.AppendUint(b, uint64(v), 10), ',')
	}
	b = append(b[:len(b)-1], ")\r\n"...)
	ss.ctrl.Commit(len(b))

	// Rebind the control-channel line handler: the next RETR triggers the
	// transfer over whichever data connection arrives.
	var dataConn *netstack.Conn
	pendingRETR := false
	startTransfer := func() {
		size := int(s.rng.Pareto(float64(s.cfg.MeanFileBytes)/3, 1.3))
		if size > 4<<20 {
			size = 4 << 20
		}
		// The file is generated in the data connection's send buffer; the
		// 150 goes out on the control channel before its first segment.
		s.rng.Bytes(dataConn.Reserve(size)[:size])
		workload.SendNumbered(ss.ctrl, "150 opening data connection (", size, " bytes)\r\n")
		dataConn.Commit(size)
		dataConn.Close()
		s.transfers++
		s.bytesOut += uint64(size)
		ss.reply("226 transfer complete")
		dataListener.Close()
	}
	dataListener.SetAccept(func(c *netstack.Conn) {
		dataConn = c
		c.OnRemoteClose = func() { c.Close() }
		if pendingRETR {
			pendingRETR = false
			startTransfer()
		}
	})
	lr := &workload.LineReader{OnLine: func(line string) {
		cmd, _, _ := strings.Cut(line, " ")
		switch strings.ToUpper(cmd) {
		case "RETR":
			if dataConn != nil {
				startTransfer()
			} else {
				pendingRETR = true
			}
		case "QUIT":
			ss.reply("221 goodbye")
			dataListener.Close()
			ss.ctrl.Close()
		default:
			ss.handleLine(line)
		}
	}}
	ss.ctrl.OnData = func(d []byte) { lr.Feed(d) }
}

// Client logs in, downloads files in a Poisson loop and quits; one session
// per fetch, matching interactive FTP usage.
type Client struct {
	host      *netstack.Host
	server    packet.Addr
	user      string
	pass      string
	meanThink time.Duration
	proc      *workload.Process
	rng       *sim.RNG

	sessions  uint64
	completed uint64
	failed    uint64
	bytesIn   uint64
}

// NewClient returns an unstarted FTP client workload.
func NewClient(server packet.Addr, user, pass string, meanThink time.Duration, seed int64) *Client {
	if meanThink <= 0 {
		meanThink = 10 * time.Second
	}
	return &Client{
		server:    server,
		user:      user,
		pass:      pass,
		meanThink: meanThink,
		rng:       sim.Substream(seed, "ftpapp/client"),
	}
}

// Attach binds the client to a host and starts the session loop.
func (c *Client) Attach(h *netstack.Host) {
	c.host = h
	c.proc = workload.NewPoisson(h.Scheduler(), c.rng, c.meanThink, c.session)
	c.proc.Start()
}

// Detach stops the session loop.
func (c *Client) Detach() {
	if c.proc != nil {
		c.proc.Stop()
		c.proc = nil
	}
}

// Stats reports sessions started, transfers completed, failed sessions and
// payload bytes received.
func (c *Client) Stats() (sessions, completed, failed, bytesIn uint64) {
	return c.sessions, c.completed, c.failed, c.bytesIn
}

func (c *Client) session() {
	c.sessions++
	ctrl := c.host.DialTCP(c.server, DefaultPort)
	done := false
	fail := func() {
		if !done {
			done = true
			c.failed++
			ctrl.Close()
		}
	}
	ctrl.OnClose = func(err error) {
		if err != nil && !done {
			done = true
			c.failed++
		}
	}
	ctrl.OnRemoteClose = func() { ctrl.Close() }
	workload.AttachLines(ctrl, func(line string) {
		if len(line) < 3 {
			return
		}
		switch line[:3] {
		case "220":
			ctrl.Send([]byte("USER " + c.user + "\r\n"))
		case "331":
			ctrl.Send([]byte("PASS " + c.pass + "\r\n"))
		case "230":
			ctrl.Send([]byte("PASV\r\n"))
		case "530":
			fail()
		case "227":
			ip, port, ok := parsePASV(line)
			if !ok {
				fail()
				return
			}
			data := c.host.DialTCP(ip, port)
			data.OnData = func(d []byte) { c.bytesIn += uint64(len(d)) }
			data.OnRemoteClose = func() { data.Close() }
			data.OnConnect = func() { ctrl.Send([]byte("RETR file.bin\r\n")) }
		case "226":
			if !done {
				done = true
				c.completed++
			}
			ctrl.Send([]byte("QUIT\r\n"))
		case "221":
			ctrl.Close()
		case "425", "550", "502":
			fail()
		}
	})
}

// parsePASV extracts the data address from a 227 reply.
func parsePASV(line string) (packet.Addr, uint16, bool) {
	lp := strings.IndexByte(line, '(')
	rp := strings.IndexByte(line, ')')
	if lp < 0 || rp < lp {
		return packet.Addr{}, 0, false
	}
	parts := strings.Split(line[lp+1:rp], ",")
	if len(parts) != 6 {
		return packet.Addr{}, 0, false
	}
	var nums [6]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &nums[i]); err != nil {
			return packet.Addr{}, 0, false
		}
	}
	addr := packet.AddrFrom4(byte(nums[0]), byte(nums[1]), byte(nums[2]), byte(nums[3]))
	return addr, uint16(nums[4])<<8 | uint16(nums[5]), true
}
