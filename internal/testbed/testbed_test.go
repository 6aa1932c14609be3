package testbed

import (
	"bytes"
	"testing"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/dataset"
	"ddoshield/internal/devices"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// smallTestbed assembles a fast-converging instance for tests: few
// devices, eager scanner.
func smallTestbed(t *testing.T, seed int64) *Testbed {
	t.Helper()
	tb, err := New(Config{
		Seed:         seed,
		NumDevices:   5,
		MeanThink:    2 * time.Second,
		ScanInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTestbedEndToEnd is the Fig. 1 check: the assembled topology produces
// benign traffic, the Mirai campaign conscripts the vulnerable devices,
// and a commanded flood reaches the TServer.
func TestTestbedEndToEnd(t *testing.T) {
	tb := smallTestbed(t, 1)

	// Count flood SYNs arriving on the TServer uplink.
	floodSYNs := 0
	tb.AddTap(decodeTap(func(p *packet.Packet) {
		if p.HasTCP && p.IPv4.Dst == tb.TServerAddr() &&
			p.TCP.Flags == packet.FlagSYN && DefaultSpoofRange.Contains(p.IPv4.Src) {
			floodSYNs++
		}
	}))

	tb.Start()

	// Infection phase.
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Fleet of 5 cycles the default profiles: ip-camera, dvr, router
	// vulnerable; sensor, smart-tv hardened.
	if got := tb.InfectedCount(); got != 3 {
		t.Fatalf("infected = %d, want 3 vulnerable devices", got)
	}
	if tb.C2().Bots() != 3 {
		t.Fatalf("C2 bots = %d", tb.C2().Bots())
	}
	for i, dh := range tb.Devices() {
		hardened := devices.DefaultFleet[i%len(devices.DefaultFleet)].Cred.User == ""
		if hardened && dh.Device.Infected() {
			t.Fatalf("hardened device %s infected", dh.Container.Name())
		}
	}

	// Benign traffic flowed from all three services.
	httpReqs, _ := tb.HTTPServer().Stats()
	if httpReqs == 0 {
		t.Fatal("no HTTP traffic")
	}
	streams, _ := tb.VideoServer().Stats()
	if streams == 0 {
		t.Fatal("no video traffic")
	}
	_, transfers, _, _ := tb.FTPServer().Stats()
	if transfers == 0 {
		t.Fatal("no FTP traffic")
	}
	if floodSYNs != 0 {
		t.Fatalf("flood traffic before any attack command: %d", floodSYNs)
	}

	// Attack phase.
	tb.C2().Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
		Duration: 5 * time.Second, PPS: 200,
	})
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 3 bots * 200 pps * 5 s = ~3000 SYNs.
	if floodSYNs < 2000 {
		t.Fatalf("flood SYNs at TServer = %d, want ~3000", floodSYNs)
	}
}

func TestLabelerGroundTruth(t *testing.T) {
	tb := smallTestbed(t, 3)
	label := tb.Labeler()
	cases := []struct {
		name string
		b    features.Basic
		want int
	}{
		{"benign http", features.Basic{Src: deviceAddr(0), Dst: addrTServer, Proto: packet.ProtoTCP, DstPort: 80}, dataset.Benign},
		{"scan", features.Basic{Src: addrAttacker, Dst: deviceAddr(1), Proto: packet.ProtoTCP, DstPort: 23}, dataset.Malicious},
		{"scan reply", features.Basic{Src: deviceAddr(1), Dst: addrAttacker, Proto: packet.ProtoTCP, SrcPort: 23}, dataset.Malicious},
		{"c2 keepalive", features.Basic{Src: deviceAddr(0), Dst: addrC2, Proto: packet.ProtoTCP, DstPort: 5555}, dataset.Malicious},
		{"spoofed syn", features.Basic{Src: packet.AddrFrom4(10, 0, 201, 7), Dst: addrTServer, Proto: packet.ProtoTCP, DstPort: 80}, dataset.Malicious},
		{"backscatter synack", features.Basic{Src: addrTServer, Dst: packet.AddrFrom4(10, 0, 202, 9), Proto: packet.ProtoTCP, SrcPort: 80}, dataset.Malicious},
		{"udp flood", features.Basic{Src: deviceAddr(0), Dst: addrTServer, Proto: packet.ProtoUDP, DstPort: 9999}, dataset.Malicious},
		{"benign ftp data", features.Basic{Src: addrTServer, Dst: deviceAddr(2), Proto: packet.ProtoTCP, SrcPort: 20001}, dataset.Benign},
	}
	for _, c := range cases {
		if got := label(&c.b); got != c.want {
			t.Errorf("%s: label = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestDatasetGeneration is the §IV-D dataset experiment at test scale: a
// combined benign+attack run must yield a labeled, roughly balanced
// corpus containing both classes.
func TestDatasetGeneration(t *testing.T) {
	tb := smallTestbed(t, 4)
	dc := tb.NewDatasetCollector(time.Second)
	tb.AddTap(dc.Tap())
	tb.Start()
	if err := tb.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	tb.ScheduleAttackWave(100*time.Second, 5*time.Second, tb.DefaultAttackWave(20*time.Second, 100))
	if err := tb.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	ds := dc.Dataset()
	sum := ds.Summarize()
	if sum.Benign == 0 || sum.Malicious == 0 {
		t.Fatalf("dataset missing a class: %v", sum)
	}
	if sum.Total < 1000 {
		t.Fatalf("dataset too small: %v", sum)
	}
	if ds.NumFeatures() != features.NumFeatures() {
		t.Fatalf("schema width = %d", ds.NumFeatures())
	}
}

// TestDatasetCSVByteStable: collecting one seeded campaign twice writes the
// same CSV bytes. The window entropies once summed their terms in map
// iteration order, which moved their last bit from one run to the next.
func TestDatasetCSVByteStable(t *testing.T) {
	collect := func() []byte {
		tb := smallTestbed(t, 4)
		dc := tb.NewDatasetCollector(time.Second)
		tb.AddTap(dc.Tap())
		tb.Start()
		tb.ScheduleAttackWave(20*time.Second, 2*time.Second, tb.DefaultAttackWave(5*time.Second, 100))
		if err := tb.Run(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dc.Dataset().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := collect(), collect()
	if !bytes.Equal(a, b) {
		t.Fatalf("two collections of one seeded run wrote different CSVs (%d and %d bytes)", len(a), len(b))
	}
}

// TestIDSPipeline is the Fig. 2 check: a detection unit tapped at the
// TServer sees windows, scores them against ground truth and meters CPU
// into the IDS container.
func TestIDSPipeline(t *testing.T) {
	tb := smallTestbed(t, 5)
	unit := ids.New(ids.Config{
		Window:  time.Second,
		Labeler: tb.Labeler(),
		Meter:   tb.IDSContainer(),
	})
	tb.AddTap(unit.Tap())
	tb.Start()
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit.Flush()
	if len(unit.Results()) < 10 {
		t.Fatalf("windows = %d", len(unit.Results()))
	}
	if unit.PacketsSeen() == 0 {
		t.Fatal("no packets classified")
	}
	if tb.IDSContainer().CPUTime() <= 0 {
		t.Fatal("no CPU metered into the IDS container")
	}
}

func TestThroughputDegradesUnderAttack(t *testing.T) {
	tb, err := New(Config{
		Seed:         6,
		NumDevices:   5,
		MeanThink:    time.Second,
		ScanInterval: 100 * time.Millisecond,
		// Narrow uplink so the flood visibly displaces benign traffic.
		Link: netsim.LinkConfig{RateBps: 5_000_000, Delay: sim.Millisecond, QueueBytes: 32 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if tb.C2().Bots() == 0 {
		t.Fatal("no bots for the attack")
	}
	nic := tb.TServer().Host().NIC()
	_, rxBefore, _, _ := nic.Stats()
	// Attack at high PPS: 3 bots * 2000 pps * ~60B SYNs + backscatter.
	tb.C2().Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
		Duration: 30 * time.Second, PPS: 3000,
	})
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, rxAfter, _, _ := nic.Stats()
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The TServer's listener should have felt backlog pressure.
	_, synDropped, halfExpired := tb.HTTPServer().Listener().Stats()
	if synDropped == 0 && halfExpired == 0 {
		t.Fatal("SYN flood exerted no backlog pressure on the TServer")
	}
	// And its uplink saw elevated load during the attack.
	during := float64(rxAfter-rxBefore) * 8 / 30
	before := float64(rxBefore) * 8 / 120
	if during <= before {
		t.Fatalf("rx bps during attack (%0.f) not above baseline (%0.f)", during, before)
	}
}

func TestChurnRebootsDevices(t *testing.T) {
	tb, err := New(Config{
		Seed:         7,
		NumDevices:   6,
		ScanInterval: 100 * time.Millisecond,
		Churn: ChurnConfig{
			Enabled:  true,
			MeanUp:   20 * time.Second,
			MeanDown: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	restarts := 0
	for _, dh := range tb.Devices() {
		restarts += dh.Container.Restarts()
	}
	if restarts == 0 {
		t.Fatal("churn produced no reboots")
	}
}

func TestConfigValidation(t *testing.T) {
	// The old 200-device clamp is gone: a 1000-device fleet builds as
	// requested (devices beyond the classic 10.0.2.x plane land in the
	// 10.4.0.0+ extension plane).
	tb, err := New(Config{Seed: 9, NumDevices: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Devices()) != 1000 {
		t.Fatalf("fleet size not honored: %d", len(tb.Devices()))
	}
	// Addresses must be unique across both planes.
	seen := map[string]int{}
	for i, dh := range tb.Devices() {
		a := dh.Container.Host().Addr().String()
		if j, dup := seen[a]; dup {
			t.Fatalf("address collision: devices %d and %d both at %s", j, i, a)
		}
		seen[a] = i
	}
	// Beyond MaxDevices is an error, not a silent clamp.
	if _, err := New(Config{Seed: 9, NumDevices: MaxDevices + 1}); err == nil {
		t.Fatal("NumDevices > MaxDevices not rejected")
	}
	// More groups than devices would leave groups empty; a huge count
	// would size the group index past memory.
	for _, groups := range []int{5, 1_000_000_000} {
		if _, err := New(Config{Seed: 9, NumDevices: 4, DeviceGroups: groups}); err == nil {
			t.Fatalf("DeviceGroups %d > NumDevices 4 not rejected", groups)
		}
	}
}

// decodeTap adapts a packet-level observer to a netsim.Tap, skipping frames
// that fail to decode.
func decodeTap(fn func(p *packet.Packet)) netsim.Tap {
	return func(at sim.Time, raw []byte, _ trace.Context) {
		if p := new(packet.Packet); packet.DecodeInto(p, at, raw) == nil {
			fn(p)
		}
	}
}
