package netstack

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// The TCP stack checked against closed forms. Every expected value below is
// computed here from the link's rate and delay and the stack's constants,
// never recorded from a run.

// headers is what a full-sized data segment carries on the wire besides
// its payload: Ethernet, IPv4 and TCP headers without options.
const headers = packet.EthernetHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen

// wire builds two hosts joined by one duplex link, with no switch between.
func wire(t *testing.T, cfg netsim.LinkConfig) (*sim.Scheduler, *Host, *Host) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	a, b := net.NewNode("a").AddNIC(), net.NewNode("b").AddNIC()
	net.Connect(a, b, cfg)
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	host := func(nic *netsim.NIC, n uint32) *Host {
		return NewHost(nic, HostConfig{Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n)})
	}
	return s, host(a, 1), host(b, 2)
}

// ser is the time a frame of n bytes occupies a transmitter of rate bps.
func ser(n int, bps int64) float64 { return float64(n) * 8 / float64(bps) }

// TestBulkGoodputMatchesClosedForm: a loss-free bulk transfer settles at
// min(R·MSS/(MSS+headers), sendWindow/RTT), where RTT is a full segment's
// serialization, its ACK's serialization and two propagation delays. One
// link is rate-limited, the other window-limited.
func TestBulkGoodputMatchesClosedForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  netsim.LinkConfig
	}{
		{"rate-limited", netsim.LinkConfig{RateBps: 10_000_000, Delay: sim.Millisecond, QueueBytes: 1 << 20}},
		{"window-limited", netsim.LinkConfig{RateBps: 1_000_000_000, Delay: 10 * sim.Millisecond, QueueBytes: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, d := tc.cfg.RateBps, tc.cfg.Delay.Duration().Seconds()
			rtt := 2*d + ser(MSS+headers, r) + ser(headers, r)
			want := min(float64(r)*MSS/(MSS+headers), sendWindow*8/rtt)

			s, client, server := wire(t, tc.cfg)
			// Measure between window boundaries a quarter and three quarters
			// of the way in, so neither the first window's start nor the
			// last one's drain enters the rate.
			const windows = 64
			total := windows * sendWindow
			from, to := windows/4*sendWindow, 3*windows/4*sendWindow
			var at [2]sim.Time
			var bytes [2]int
			rcvd := 0
			if _, err := server.ListenTCP(80, 0, func(c *Conn) {
				c.OnData = func(p []byte) {
					rcvd += len(p)
					for i, mark := range []int{from, to} {
						if at[i] == 0 && rcvd >= mark {
							at[i], bytes[i] = s.Now(), rcvd
						}
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			c := client.DialTCP(server.Addr(), 80)
			c.OnConnect = func() { c.Send(make([]byte, total)) }
			if err := s.Run(60 * sim.Second); err != nil {
				t.Fatal(err)
			}
			if rcvd != total {
				t.Fatalf("received %d of %d bytes", rcvd, total)
			}
			goodput := float64(bytes[1]-bytes[0]) * 8 / (at[1] - at[0]).Duration().Seconds()
			if dev := goodput/want - 1; dev < -0.02 || dev > 0.02 {
				t.Fatalf("goodput %.4g b/s, closed form %.4g b/s (%+.2f%%)", goodput, want, 100*dev)
			}
		})
	}
}

// TestOneDropCostsBaseRTOPlusRTT: a one-segment message whose first copy is
// lost is retransmitted when the retransmission timer, armed at the send,
// fires after baseRTO; the copy then makes one round trip. So the sender
// holds the ACK baseRTO + RTT after the send, where a loss-free send holds
// it after one RTT.
func TestOneDropCostsBaseRTOPlusRTT(t *testing.T) {
	const msg = 1000
	cfg := netsim.LinkConfig{RateBps: 10_000_000, Delay: 5 * sim.Millisecond}
	rtt := 2*cfg.Delay.Duration().Seconds() + ser(msg+headers, cfg.RateBps) + ser(headers, cfg.RateBps)
	for _, drop := range []bool{false, true} {
		want := rtt
		if drop {
			want += baseRTO.Seconds()
		}
		s, client, server := wire(t, cfg)
		if _, err := server.ListenTCP(80, 0, func(*Conn) {}); err != nil {
			t.Fatal(err)
		}
		dropped := !drop
		var p packet.Packet
		server.NIC().SetIngressFilterCtx(func(raw []byte, _ trace.Context) bool {
			if !dropped && packet.DecodeInto(&p, s.Now(), raw) == nil && p.HasTCP && len(p.Payload) > 0 {
				dropped = true
				return false
			}
			return true
		})
		const sendAt = sim.Second // long after the handshake: both links idle
		var ackAt sim.Time
		client.NIC().SetIngressFilterCtx(func(raw []byte, _ trace.Context) bool {
			if ackAt == 0 && s.Now() > sendAt {
				ackAt = s.Now()
			}
			return true
		})
		c := client.DialTCP(server.Addr(), 80)
		s.At(sendAt, func() { c.Send(make([]byte, msg)) })
		if err := s.Run(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if !dropped || ackAt == 0 {
			t.Fatalf("drop=%v: segment dropped %v, ACK seen %v", drop, dropped, ackAt != 0)
		}
		got := (ackAt - sendAt).Duration().Seconds()
		if diff := got - want; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("drop=%v: ACK %v after the send, closed form %v", drop,
				time.Duration(got*1e9), time.Duration(want*1e9))
		}
	}
}
