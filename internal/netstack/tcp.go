package netstack

import (
	"errors"
	"fmt"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// ConnState enumerates the implemented subset of the TCP state machine.
type ConnState int

// TCP connection states.
const (
	StateClosed ConnState = iota + 1
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
	StateTimeWait
)

var stateNames = map[ConnState]string{
	StateClosed: "CLOSED", StateSynSent: "SYN_SENT", StateSynRcvd: "SYN_RCVD",
	StateEstablished: "ESTABLISHED", StateFinWait1: "FIN_WAIT_1",
	StateFinWait2: "FIN_WAIT_2", StateCloseWait: "CLOSE_WAIT",
	StateLastAck: "LAST_ACK", StateClosing: "CLOSING", StateTimeWait: "TIME_WAIT",
}

// String renders the RFC 793 state name.
func (s ConnState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("ConnState(%d)", int(s))
}

// Transport tuning constants. These are deliberately simple (fixed RTO base,
// fixed window) — the dynamics that matter to the IDS are handshakes, ACK
// clocking and retransmission, not congestion-control minutiae.
const (
	// MSS is the maximum TCP payload per segment.
	MSS = 1400
	// sendWindow caps unacknowledged bytes in flight.
	sendWindow = 16 * MSS
	// advertisedWindow is the receive window advertised in every segment.
	advertisedWindow = 65535
	// baseRTO is the initial retransmission timeout.
	baseRTO = 200 * time.Millisecond
	// maxRetries aborts the connection after this many timeouts in a row.
	maxRetries = 5
	// timeWaitDelay is how long a closed connection lingers in TIME_WAIT.
	timeWaitDelay = 1 * time.Second
	// synRcvdTimeout evicts half-open (SYN_RCVD) connections that never
	// complete the handshake — the resource a SYN flood exhausts.
	synRcvdTimeout = 5 * time.Second
	// DefaultBacklog is the default cap on simultaneous half-open
	// connections per listener.
	DefaultBacklog = 128
)

// Errors surfaced through Conn.OnClose.
var (
	// ErrReset reports the peer aborted the connection with RST.
	ErrReset = errors.New("connection reset by peer")
	// ErrTimeout reports retransmissions were exhausted.
	ErrTimeout = errors.New("connection timed out")
	// ErrRefused reports the peer answered the SYN with RST.
	ErrRefused = errors.New("connection refused")
)

type connKey struct {
	remote     packet.Addr
	remotePort uint16
	localPort  uint16
}

// Conn is one TCP connection endpoint. Interaction is callback-based: the
// owner installs OnConnect/OnData/OnClose before traffic flows (for dialed
// connections, before the handshake completes; for accepted connections,
// inside the listener's accept callback).
type Conn struct {
	host  *Host
	key   connKey
	state ConnState

	// Send side. sendBuf is a buffer of the host's (buffers.go) that the
	// connection owns while it holds it; sendBuf[sendOff:] are the bytes
	// [sndUna, ...) — unacked, then unsent. It goes back to the host when
	// the last of them is acknowledged: see Reserve for the contract.
	iss     uint32
	sndUna  uint32
	sndNxt  uint32
	sendBuf []byte
	sendOff int
	finQ    bool // close requested: FIN follows the buffered data
	finSent bool
	finSeq  uint32

	// Receive side.
	rcvNxt  uint32
	gotSYN  bool
	peerFIN bool

	// Retransmission. rtxFn is onRetransmitTimeout bound to this connection,
	// once: the timer is re-armed on every ACK that leaves data in flight.
	rtx     sim.Event
	rtxFn   sim.Handler
	rto     time.Duration
	retries int

	// Lifecycle callbacks. OnData's data lies in the received frame and is
	// valid only until OnData returns: the frame's buffer is then recycled,
	// so an application that keeps any of it copies it.
	OnConnect func()
	OnData    func(data []byte)
	OnClose   func(err error)
	// OnRemoteClose fires once when the peer half-closes (FIN received)
	// while the local side is still open.
	OnRemoteClose func()

	connected  bool
	closeFired bool
	acceptedBy *Listener
}

// State reports the connection's current TCP state.
func (c *Conn) State() ConnState { return c.state }

// RemoteAddr reports the peer's address and port.
func (c *Conn) RemoteAddr() (packet.Addr, uint16) { return c.key.remote, c.key.remotePort }

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	host    *Host
	port    uint16
	accept  func(*Conn)
	backlog int
	halfDM  map[connKey]*Conn // half-open (SYN_RCVD) connections; nil until first SYN
	closed  bool

	accepted    uint64
	synDropped  uint64
	halfExpired uint64
}

// ListenTCP binds port and invokes accept for every connection that
// completes the three-way handshake. backlog caps half-open connections;
// zero means DefaultBacklog.
func (h *Host) ListenTCP(port uint16, backlog int, accept func(*Conn)) (*Listener, error) {
	if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("tcp port %d already bound on %s", port, h.cfg.Addr)
	}
	if backlog <= 0 {
		backlog = DefaultBacklog
	}
	// halfDM stays nil until the first inbound SYN: an idle service (every
	// device binds telnet) then costs no backlog storage.
	l := &Listener{host: h, port: port, accept: accept, backlog: backlog}
	h.listenerMap()[port] = l
	return l, nil
}

// SetAccept replaces the accept callback (e.g. a data-channel listener
// created before its handler is known).
func (l *Listener) SetAccept(accept func(*Conn)) { l.accept = accept }

// Close stops accepting new connections; established ones are unaffected.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.host.listeners, l.port)
}

// Stats reports completed accepts, SYNs dropped by backlog pressure, and
// half-open entries that timed out. Backlog exhaustion under SYN flood is
// the mechanism by which the attack degrades the TServer.
func (l *Listener) Stats() (accepted, synDropped, halfExpired uint64) {
	return l.accepted, l.synDropped, l.halfExpired
}

// DialTCP opens a connection to dst:port. Callbacks on the returned Conn
// should be installed immediately (the SYN is already in flight, but no
// callback can fire until the current event returns).
func (h *Host) DialTCP(dst packet.Addr, dstPort uint16) *Conn {
	key := connKey{remote: dst, remotePort: dstPort, localPort: h.nextEphemeralPort()}
	c := &Conn{
		host:  h,
		key:   key,
		state: StateSynSent,
		iss:   h.rand().Uint32(),
		rto:   baseRTO,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	h.connMap()[key] = c
	c.sendSegment(c.iss, 0, packet.FlagSYN, nil)
	c.armRetransmit()
	return c
}

// Send queues a copy of data for transmission; the caller keeps data. Bytes
// the application generates itself go through Reserve and Commit instead,
// which skip the copy. Data queued after Close is discarded.
func (c *Conn) Send(data []byte) {
	if len(data) == 0 || !c.canQueue() {
		return
	}
	copy(c.Reserve(len(data))[:len(data)], data)
	c.Commit(len(data))
}

// canQueue reports whether the connection still accepts bytes to send.
func (c *Conn) canQueue() bool {
	if c.finQ {
		return false
	}
	switch c.state {
	case StateSynSent, StateSynRcvd, StateEstablished, StateCloseWait:
		return true
	}
	return false
}

// Reserve returns an empty slice with room for n bytes at the tail of the
// connection's send buffer, for the application to generate its next bytes
// in place; Commit then queues them:
//
//	b := c.Reserve(len(prefix) + 20 + size)
//	b = strconv.AppendInt(append(b, prefix...), int64(size), 10)
//	rng.Bytes(b[len(b) : len(b)+size])
//	c.Commit(len(b)) // the header, pushed as its own segment
//	c.Commit(size)   // the body behind it
//
// The reservation is the application's until the next call on the
// connection other than Commit, and must not be kept past it: the buffer is
// the connection's, which reads it for every (re)transmission, may move it
// when it needs room, and returns it to the host — for the host's next
// connection to write into — as soon as every queued byte is acknowledged
// or the connection is torn down. Reserve works in any state, so generation
// that draws from an RNG draws the same whether or not the connection can
// still send; Commit discards what cannot be sent.
func (c *Conn) Reserve(n int) []byte {
	end := len(c.sendBuf)
	if cap(c.sendBuf)-end < n {
		c.growSendBuf(n)
		end = len(c.sendBuf)
	}
	return c.sendBuf[end : end : end+n]
}

// growSendBuf makes room for n more bytes behind the queued ones. They move
// to the front of the buffer when that fits and the acknowledged prefix they
// move over is at least as long as they are; otherwise to a buffer with room
// for twice their number. Either way a byte is moved O(1) times however long
// the application keeps queueing ahead of the acknowledgements.
func (c *Conn) growSendBuf(n int) {
	q := c.queued()
	if need := len(q) + n; need <= cap(c.sendBuf) && len(q) <= c.sendOff {
		c.sendBuf = c.sendBuf[:copy(c.sendBuf[:need], q)]
	} else {
		b := append(c.host.getBuffer(max(need, 2*len(q))), q...)
		c.releaseSendBuf()
		c.sendBuf = b
	}
	c.sendOff = 0
}

// Commit queues the next n reserved bytes, exactly as Send queues a copy of
// its argument: successive Commits split one reservation into pieces that
// go out as successive Sends would (the piece's last segment is pushed).
// Data queued after Close is discarded.
func (c *Conn) Commit(n int) {
	if n > 0 && c.canQueue() {
		c.sendBuf = c.sendBuf[:len(c.sendBuf)+n]
		c.pump()
	}
	if c.sendOff == len(c.sendBuf) {
		c.releaseSendBuf() // nothing was queued, or nothing could be
	}
}

// queued returns the bytes waiting for acknowledgement or for the window.
func (c *Conn) queued() []byte { return c.sendBuf[c.sendOff:] }

// releaseSendBuf hands the send buffer back to the host.
func (c *Conn) releaseSendBuf() {
	if c.sendBuf != nil {
		c.host.putBuffer(c.sendBuf)
		c.sendBuf, c.sendOff = nil, 0
	}
}

// Close performs an orderly shutdown: buffered data is sent, then FIN.
func (c *Conn) Close() {
	if c.finQ || c.state == StateClosed {
		return
	}
	c.finQ = true
	c.pump()
}

// Abort sends RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagRST|packet.FlagACK, nil)
	c.teardown(ErrReset)
}

// --- internals ---

func (c *Conn) sendSegment(seq, ack uint32, flags uint8, payload []byte) {
	c.sendSegmentTraced("tcp-tx", seq, ack, flags, payload)
}

// sendSegmentTraced is sendSegment with an explicit origin-span name, so
// retransmissions trace as "tcp-retransmit" rather than "tcp-tx".
func (c *Conn) sendSegmentTraced(origin string, seq, ack uint32, flags uint8, payload []byte) {
	h := c.host
	ip := packet.IPv4{TTL: ipTTL, ID: h.nextIPID(), Src: h.cfg.Addr, Dst: c.key.remote}
	tcp := packet.TCP{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  advertisedWindow,
	}
	oc := h.traceOrigin(origin, c.key.remote, c.key.localPort, c.key.remotePort, packet.ProtoTCP)
	h.SendFrame(c.key.remote, packet.BuildTCP(h.MAC(), packet.MAC{}, ip, tcp, payload), oc)
}

// outstanding reports unacknowledged bytes in flight.
func (c *Conn) outstanding() uint32 { return c.sndNxt - c.sndUna }

// pump transmits as much buffered data as the window allows, then FIN.
func (c *Conn) pump() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateLastAck:
	default:
		return // handshake not complete (data stays buffered) or closed
	}
	sentAny := false
	q := c.queued()
	for {
		unsent := uint32(len(q)) - c.dataInFlight()
		if unsent == 0 || c.outstanding() >= sendWindow {
			break
		}
		n := unsent
		if n > MSS {
			n = MSS
		}
		if c.outstanding()+n > sendWindow {
			n = sendWindow - c.outstanding()
		}
		off := c.dataInFlight()
		seg := q[off : off+n]
		flags := packet.FlagACK
		if off+n == uint32(len(q)) {
			flags |= packet.FlagPSH
		}
		c.sendSegment(c.sndNxt, c.rcvNxt, flags, seg)
		c.sndNxt += n
		sentAny = true
	}
	if c.finQ && !c.finSent && c.dataInFlight() == uint32(len(q)) {
		c.finSeq = c.sndNxt
		c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagFIN|packet.FlagACK, nil)
		c.sndNxt++
		c.finSent = true
		sentAny = true
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait1
		case StateCloseWait:
			c.state = StateLastAck
		}
	}
	if sentAny && !c.rtx.Pending() {
		c.armRetransmit()
	}
}

// dataInFlight reports how many buffered payload bytes have been sent
// (acked bytes leave the queue, so flight = sndNxt-sndUna minus
// any SYN/FIN sequence numbers outstanding).
func (c *Conn) dataInFlight() uint32 {
	n := c.outstanding()
	if c.state == StateSynSent || c.state == StateSynRcvd {
		// SYN still unacked.
		if n > 0 {
			n--
		}
	}
	if c.finSent {
		if n > 0 {
			n--
		}
	}
	return n
}

func (c *Conn) armRetransmit() {
	c.disarmRetransmit()
	if c.rtxFn == nil {
		c.rtxFn = c.onRetransmitTimeout
	}
	c.rtx = c.host.sched.After(c.rto, c.rtxFn)
}

func (c *Conn) disarmRetransmit() {
	c.rtx.Cancel()
	c.rtx = sim.Event{}
}

func (c *Conn) onRetransmitTimeout() {
	c.rtx = sim.Event{}
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		if c.state == StateSynSent {
			c.teardown(ErrRefused)
		} else {
			c.teardown(ErrTimeout)
		}
		return
	}
	c.host.emitTCP("retransmit", int64(c.retries))
	c.rto *= 2
	switch c.state {
	case StateSynSent:
		c.sendSegmentTraced("tcp-retransmit", c.iss, 0, packet.FlagSYN, nil)
	case StateSynRcvd:
		c.sendSegmentTraced("tcp-retransmit", c.iss, c.rcvNxt, packet.FlagSYN|packet.FlagACK, nil)
	default:
		// Resend the earliest unacknowledged chunk (go-back-one).
		if q := c.queued(); len(q) > 0 {
			seg := min(len(q), MSS)
			c.sendSegmentTraced("tcp-retransmit", c.sndUna, c.rcvNxt, packet.FlagACK|packet.FlagPSH, q[:seg])
		} else if c.finSent && c.sndUna == c.finSeq {
			c.sendSegmentTraced("tcp-retransmit", c.finSeq, c.rcvNxt, packet.FlagFIN|packet.FlagACK, nil)
		}
	}
	c.armRetransmit()
}

func (c *Conn) teardown(err error) {
	c.disarmRetransmit()
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.releaseSendBuf()
	delete(c.host.conns, c.key)
	if c.acceptedBy != nil {
		delete(c.acceptedBy.halfDM, c.key)
	}
	if !c.closeFired {
		c.closeFired = true
		if c.OnClose != nil {
			c.OnClose(err)
		}
	}
}

func (c *Conn) enterTimeWait() {
	c.disarmRetransmit()
	c.state = StateTimeWait
	c.host.sched.After(timeWaitDelay, func() {
		if c.state == StateTimeWait {
			c.state = StateClosed
			delete(c.host.conns, c.key)
		}
	})
	if !c.closeFired {
		c.closeFired = true
		if c.OnClose != nil {
			c.OnClose(nil)
		}
	}
}

// handleTCP dispatches an inbound segment to a connection or listener. tc
// is the packet's "deliver" span: it ends terminally when a socket takes
// the segment, or as a drop (no-socket, SYN backlog) otherwise.
func (h *Host) handleTCP(ip packet.IPv4, payload []byte, tc trace.Context) {
	now := h.sched.Now()
	tcp, data, err := packet.UnmarshalTCP(payload, ip.Src, ip.Dst, true)
	if err != nil {
		tc.Drop(now, trace.DropMalformed)
		return
	}
	key := connKey{remote: ip.Src, remotePort: tcp.SrcPort, localPort: tcp.DstPort}
	if c, ok := h.conns[key]; ok {
		tc.FinishTerminal(now)
		c.handleSegment(tcp, data)
		return
	}
	if l, ok := h.listeners[tcp.DstPort]; ok && tcp.Flags&packet.FlagSYN != 0 && tcp.Flags&packet.FlagACK == 0 {
		l.handleSYN(key, tcp, tc)
		return
	}
	// No socket: answer with RST (except to RSTs), as a real stack does.
	// The Mirai scanner interprets this as "telnet closed".
	tc.Drop(now, trace.DropNoSocket)
	if tcp.Flags&packet.FlagRST == 0 {
		h.sendRST(ip.Src, tcp)
	}
}

func (h *Host) sendRST(dst packet.Addr, in packet.TCP) {
	ip := packet.IPv4{TTL: ipTTL, ID: h.nextIPID(), Src: h.cfg.Addr, Dst: dst}
	seq := in.Ack
	ack := in.Seq + 1
	flags := packet.FlagRST | packet.FlagACK
	tcp := packet.TCP{
		SrcPort: in.DstPort, DstPort: in.SrcPort,
		Seq: seq, Ack: ack, Flags: flags, Window: 0,
	}
	oc := h.traceOrigin("tcp-rst", dst, in.DstPort, in.SrcPort, packet.ProtoTCP)
	h.SendFrame(dst, packet.BuildTCP(h.MAC(), packet.MAC{}, ip, tcp, nil), oc)
}

func (l *Listener) handleSYN(key connKey, tcp packet.TCP, tc trace.Context) {
	now := l.host.sched.Now()
	if l.closed {
		tc.Drop(now, trace.DropNoSocket)
		return
	}
	if len(l.halfDM) >= l.backlog {
		l.synDropped++ // SYN-flood pressure: silently drop
		l.host.emitTCP("syn-drop", int64(l.port))
		tc.Drop(now, trace.DropSynBacklog)
		return
	}
	tc.FinishTerminal(now)
	h := l.host
	c := &Conn{
		host:       h,
		key:        key,
		state:      StateSynRcvd,
		iss:        h.rand().Uint32(),
		rto:        baseRTO,
		rcvNxt:     tcp.Seq + 1,
		gotSYN:     true,
		acceptedBy: l,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	h.connMap()[key] = c
	if l.halfDM == nil {
		l.halfDM = make(map[connKey]*Conn)
	}
	l.halfDM[key] = c
	c.sendSegment(c.iss, c.rcvNxt, packet.FlagSYN|packet.FlagACK, nil)
	c.armRetransmit()
	// Evict if the handshake never completes.
	h.sched.After(synRcvdTimeout, func() {
		if c.state == StateSynRcvd {
			l.halfExpired++
			c.teardown(ErrTimeout)
		}
	})
}

// seqLEQ reports a <= b in sequence space.
func seqLEQ(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

func (c *Conn) handleSegment(tcp packet.TCP, data []byte) {
	if tcp.Flags&packet.FlagRST != 0 {
		switch c.state {
		case StateSynSent:
			c.teardown(ErrRefused)
		default:
			c.teardown(ErrReset)
		}
		return
	}

	switch c.state {
	case StateSynSent:
		if tcp.Flags&packet.FlagSYN != 0 && tcp.Flags&packet.FlagACK != 0 && tcp.Ack == c.iss+1 {
			c.rcvNxt = tcp.Seq + 1
			c.gotSYN = true
			c.sndUna = tcp.Ack
			c.retries = 0
			c.rto = baseRTO
			c.disarmRetransmit()
			c.state = StateEstablished
			c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagACK, nil)
			c.connected = true
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.pump()
		}
		return
	case StateSynRcvd:
		if tcp.Flags&packet.FlagACK != 0 && tcp.Ack == c.iss+1 {
			c.sndUna = tcp.Ack
			c.retries = 0
			c.rto = baseRTO
			c.disarmRetransmit()
			c.state = StateEstablished
			if l := c.acceptedBy; l != nil {
				delete(l.halfDM, c.key)
				l.accepted++
				if l.accept != nil {
					l.accept(c)
				}
			}
			c.connected = true
			if c.OnConnect != nil {
				c.OnConnect()
			}
			// Fall through to process any piggybacked data.
		} else {
			return
		}
	case StateClosed, StateTimeWait:
		return
	}

	// ACK processing.
	if tcp.Flags&packet.FlagACK != 0 && seqLT(c.sndUna, tcp.Ack) && seqLEQ(tcp.Ack, c.sndNxt) {
		acked := tcp.Ack - c.sndUna
		dataAcked := acked
		if c.finSent && tcp.Ack == c.finSeq+1 {
			dataAcked--
		}
		// A connection that has closed sits in TIME_WAIT for a second and
		// in its application's closures for longer: the buffer must not
		// wait with it.
		c.sendOff = min(c.sendOff+int(dataAcked), len(c.sendBuf))
		if c.sendOff == len(c.sendBuf) {
			c.releaseSendBuf()
		}
		c.sndUna = tcp.Ack
		c.retries = 0
		c.rto = baseRTO
		if c.outstanding() == 0 {
			c.disarmRetransmit()
		} else {
			c.armRetransmit()
		}
		// FIN acknowledged?
		if c.finSent && tcp.Ack == c.finSeq+1 {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateClosing:
				c.enterTimeWait()
				return
			case StateLastAck:
				c.disarmRetransmit()
				c.state = StateClosed
				delete(c.host.conns, c.key)
				if !c.closeFired {
					c.closeFired = true
					if c.OnClose != nil {
						c.OnClose(nil)
					}
				}
				return
			}
		}
		c.pump()
	}

	// In-order data delivery.
	if len(data) > 0 {
		switch c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			if tcp.Seq == c.rcvNxt {
				c.rcvNxt += uint32(len(data))
				c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagACK, nil)
				if c.OnData != nil {
					c.OnData(data)
				}
			} else {
				// Duplicate or out-of-order: re-ACK the expected seq.
				c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagACK, nil)
			}
		}
	}

	// FIN processing.
	if tcp.Flags&packet.FlagFIN != 0 && tcp.Seq+uint32(len(data)) == c.rcvNxt && !c.peerFIN {
		c.peerFIN = true
		c.rcvNxt++
		c.sendSegment(c.sndNxt, c.rcvNxt, packet.FlagACK, nil)
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
			if c.OnRemoteClose != nil {
				c.OnRemoteClose()
			}
		case StateFinWait1:
			c.state = StateClosing
		case StateFinWait2:
			c.enterTimeWait()
		}
	}
}
