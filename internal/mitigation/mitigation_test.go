package mitigation

import (
	"testing"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

func pair(t *testing.T) (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 16}
	mk := func(n uint32) *netstack.Host {
		nic := net.NewNode("h").AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{})
		return netstack.NewHost(nic, netstack.HostConfig{
			Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n),
		})
	}
	return s, mk(1), mk(0x0100 + 1)
}

func TestFirewallBlocksAddr(t *testing.T) {
	s, client, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	got := 0
	if _, err := server.ListenUDP(9, func(packet.Addr, uint16, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, err := client.ListenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(server.Addr(), 9, []byte("1"))
	s.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("pre-block delivery = %d", got)
	}
	fw.BlockAddr(client.Addr(), 10*time.Second)
	sock.SendTo(server.Addr(), 9, []byte("2"))
	s.RunFor(time.Second)
	if got != 1 {
		t.Fatal("blocked source still delivered")
	}
	// Rule expires: traffic resumes.
	s.RunFor(15 * time.Second)
	sock.SendTo(server.Addr(), 9, []byte("3"))
	s.RunFor(time.Second)
	if got != 2 {
		t.Fatal("expired rule still blocking")
	}
	_, dropped := fw.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestFirewallBlocksPrefixButPassesARP(t *testing.T) {
	s, client, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	fw.BlockPrefix(packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}, time.Minute)
	got := 0
	if _, err := server.ListenUDP(9, func(packet.Addr, uint16, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, err := client.ListenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The datagram needs ARP resolution first; ARP must pass the firewall
	// (otherwise nothing in the segment could ever talk again).
	sock.SendTo(server.Addr(), 9, []byte("x"))
	s.RunFor(time.Second)
	if got != 0 {
		t.Fatal("prefix-blocked source delivered")
	}
	if server.NIC().IngressDropped() == 0 {
		t.Fatal("no ingress drops recorded")
	}
	if n := NewResponder(fw, ResponderConfig{}).Report().ActiveRules.Prefix; n != 1 {
		t.Fatalf("active prefix rules = %d", n)
	}
}

// alertModel flags everything from the spoof range.
type alertModel struct{}

func (alertModel) Predict(x []float64) int {
	// win_src_addr_entropy high → the flood window; but per-packet we use
	// the src-port feature as a proxy: this stub is driven via labeler-free
	// windows, so just flag all TCP SYNs (feature index 5 = flag_syn).
	if x[5] > 0.5 {
		return dataset.Malicious
	}
	return dataset.Benign
}
func (alertModel) Name() string { return "stub" }

func TestResponderBlocksSpoofedFloodByPrefix(t *testing.T) {
	s, client, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	resp := NewResponder(fw, ResponderConfig{
		BlockTTL:           20 * time.Second,
		AggregateThreshold: 8,
		Protected:          []packet.Addr{client.Addr()},
	})
	unit := ids.New(ids.Config{
		Model:    alertModel{},
		Window:   time.Second,
		OnWindow: resp.HandleWindow,
	})
	// The IDS observes traffic *before* the firewall (span port at the
	// switch side): tap the server's uplink.
	server.NIC() // ensure wired
	// Feed the unit directly with forged SYNs from one /24.
	tap := unit.Tap()
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		src := packet.AddrFrom4(10, 0, 200, byte(rng.Intn(250)+1))
		raw := packet.BuildTCP(packet.MACFromUint64(9), server.MAC(),
			packet.IPv4{TTL: 64, Src: src, Dst: server.Addr()},
			packet.TCP{SrcPort: uint16(1024 + i), DstPort: 80, Seq: rng.Uint32(), Flags: packet.FlagSYN, Window: 512},
			nil)
		tap(sim.Time(i)*5*sim.Millisecond, raw, trace.Context{})
	}
	unit.Flush()
	rep := resp.Report()
	if rep.Alerts == 0 {
		t.Fatal("no alert handled")
	}
	if rep.RulesInstalled.Prefix == 0 {
		t.Fatalf("no prefix rule despite dense /24 (addrRules=%d)", rep.RulesInstalled.Addr)
	}
	if rep.ActiveRules.Prefix == 0 {
		t.Fatal("firewall has no prefix rule")
	}
	// The protected client must never be blocked, even if flagged.
	if _, ok := fw.addrs[client.Addr()]; ok {
		t.Fatal("protected address blocked")
	}
}

func TestResponderIgnoresQuietWindows(t *testing.T) {
	s, _, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	resp := NewResponder(fw, ResponderConfig{})
	w := &ids.WindowResult{Alert: false, FlaggedSrcs: []packet.Addr{{1, 2, 3, 4}}}
	resp.HandleWindow(w)
	if active := resp.Report().ActiveRules; active != (RuleCounts{}) {
		t.Fatal("responder acted on a non-alert window")
	}
	_ = features.NumFeatures // document the feature-layout dependency
}
