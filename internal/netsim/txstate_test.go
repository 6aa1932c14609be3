package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// txScript drives one a→b link through a timed script and writes down what
// an observer can see: every arrival at b (instant, frame number, length,
// byte sum) and, at each probe, the link's counters as Counters() and as the
// registry export them.
type txScript struct {
	t    *testing.T
	s    *sim.Scheduler
	a, b *NIC
	reg  *telemetry.Registry
	sent int
	out  strings.Builder
}

func newTxScript(t *testing.T, cfg LinkConfig) *txScript {
	p := &txScript{t: t, s: sim.NewScheduler(), reg: telemetry.NewRegistry()}
	net := New(p.s)
	net.SetSeed(11) // roots the loss streams of a lossy cfg
	net.SetTelemetry(p.reg, nil)
	p.a = net.NewNode("a").AddNIC()
	p.b = net.NewNode("b").AddNIC()
	net.Connect(p.a, p.b, cfg)
	p.b.SetHandler(func(raw []byte) {
		sum := 0
		for _, c := range raw {
			sum += int(c)
		}
		fmt.Fprintf(&p.out, "%d arrive #%d len=%d sum=%d\n", p.s.Now(), raw[14], len(raw), sum)
	})
	return p
}

// send schedules count frames of n payload bytes each, sent back to back at
// instant at. Frames are numbered in scheduling order in their first
// payload byte.
func (p *txScript) send(at sim.Time, n, count int) {
	for i := 0; i < count; i++ {
		p.sent++
		f := frame(p.a.MAC(), p.b.MAC(), n)
		f[14] = byte(p.sent)
		p.s.At(at, func() { p.a.Send(f) })
	}
}

func (p *txScript) probe(at sim.Time) { p.s.At(at, p.probeNow) }

func (p *txScript) probeNow() {
	c := p.a.link.Counters()
	reg := "?"
	for _, line := range strings.Split(promText(p.t, p.reg), "\n") {
		if v, ok := strings.CutPrefix(line, `netsim_link_tx_frames_total{dir="a/eth0->b/eth0"} `); ok {
			reg = v
		}
	}
	fmt.Fprintf(&p.out, "%d probe tx=%d/%dB exported=%s qdrop=%d loss=%d corrupt=%d dup=%d reorder=%d inflight=%d\n",
		p.s.Now(), c.TxFrames, c.TxBytes, reg, c.QueueDrops, c.LossFrames, c.CorruptFrames, c.DupFrames, c.ReorderFrames, c.InFlightDrops)
}

// run executes the script to the horizon (or, with none, until no event is
// left), probes once more there, and returns the transcript.
func (p *txScript) run(horizon sim.Time) string {
	if horizon == 0 {
		p.s.Drain()
	} else if err := p.s.Run(horizon); err != nil {
		p.t.Fatal(err)
	}
	p.probeNow()
	return p.out.String()
}

// TestTransmitterStateTable pins the transmitter — busy until a computed
// instant, a completion event only while frames queue — to the model it
// replaced, which fired a completion event for every frame: each transcript
// below was recorded by running this file at the commit before the change.
// A 986-byte payload makes a 1000-byte frame, 8 ms of serialization at
// 1 Mb/s; propagation is 2 ms. Probes sit 1 ns either side of completion
// instants, never on them: there the old model's answer depended on whether
// the probe or the completion event had been scheduled first.
func TestTransmitterStateTable(t *testing.T) {
	const ms = sim.Millisecond
	cfg := LinkConfig{RateBps: 1_000_000, Delay: 2 * ms}
	for _, tc := range []struct {
		name   string
		cfg    LinkConfig
		script func(p *txScript) sim.Time // returns the horizon; 0 drains
		want   string                     // the transcript, or its hash when long
	}{
		{name: "send exactly at busyUntil", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 1)
				p.send(8*ms, 986, 1)
				p.probe(4 * ms)
				p.probe(8*ms - 1)
				p.probe(8*ms + 1)
				p.probe(16*ms - 1)
				return 30 * ms
			},
			want: `4000000 probe tx=0/0B exported=0 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
7999999 probe tx=0/0B exported=0 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
8000001 probe tx=1/1000B exported=1 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
10000000 arrive #1 len=1000 sum=16
15999999 probe tx=1/1000B exported=1 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
18000000 arrive #2 len=1000 sum=17
30000000 probe tx=2/2000B exported=2 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "back-to-back burst", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 4)
				p.send(20*ms, 486, 2) // joins the queue behind #3 and #4
				p.probe(12 * ms)
				p.probe(36*ms + 1)
				return 60 * ms
			},
			want: `10000000 arrive #1 len=1000 sum=16
12000000 probe tx=1/1000B exported=1 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
18000000 arrive #2 len=1000 sum=17
26000000 arrive #3 len=1000 sum=18
34000000 arrive #4 len=1000 sum=19
36000001 probe tx=5/4500B exported=5 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
38000000 arrive #5 len=500 sum=20
42000000 arrive #6 len=500 sum=21
60000000 probe tx=6/5000B exported=6 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "drop-tail at QueueBytes", cfg: LinkConfig{RateBps: 1_000_000, Delay: 2 * ms, QueueBytes: 2500},
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 4)      // one transmitting, two queued, #4 over the cap
				p.send(8*ms+1, 986, 2) // #2 left the queue: room for #5, not #6
				p.probe(1 * ms)
				p.probe(9 * ms)
				return 60 * ms
			},
			want: `1000000 probe tx=0/0B exported=0 qdrop=1 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
9000000 probe tx=1/1000B exported=1 qdrop=2 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
10000000 arrive #1 len=1000 sum=16
18000000 arrive #2 len=1000 sum=17
26000000 arrive #3 len=1000 sum=18
34000000 arrive #5 len=1000 sum=20
60000000 probe tx=4/4000B exported=4 qdrop=2 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "sender side unplugged with frames queued", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 3)
				p.s.At(4*ms, func() { p.a.link.SetUpSide(0, false) })
				p.send(5*ms, 986, 1) // refused: the cable is out
				p.probe(6 * ms)
				p.s.At(30*ms, func() { p.a.link.SetUpSide(0, true) })
				p.send(31*ms, 986, 1)
				return 60 * ms
			},
			want: `6000000 probe tx=0/0B exported=0 qdrop=1 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
10000000 arrive #1 len=1000 sum=16
18000000 arrive #2 len=1000 sum=17
26000000 arrive #3 len=1000 sum=18
41000000 arrive #5 len=1000 sum=20
60000000 probe tx=4/4000B exported=4 qdrop=1 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "receiver side unplugged with frames queued", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 3)
				p.s.At(12*ms, func() { p.a.link.SetUpSide(1, false) })
				p.s.At(20*ms, func() { p.a.link.SetUpSide(1, true) })
				p.probe(19 * ms)
				return 60 * ms
			},
			want: `10000000 arrive #1 len=1000 sum=16
19000000 probe tx=2/2000B exported=2 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=1
26000000 arrive #3 len=1000 sum=18
60000000 probe tx=3/3000B exported=3 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=1
`},
		{name: "horizon mid-serialization", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 2)
				return 12 * ms
			},
			want: `10000000 arrive #1 len=1000 sum=16
12000000 probe tx=1/1000B exported=1 qdrop=0 loss=0 corrupt=0 dup=0 reorder=0 inflight=0
`},
		// A lost frame puts nothing on the wire, so its completion is the one
		// an event marks: drained, the clock must stand at the end of the
		// last serialization and every frame count as transmitted. #2 and #3
		// wait behind the lost #1 and still start one at a time.
		{name: "every frame lost, drained",
			cfg: LinkConfig{RateBps: 1_000_000, Delay: 2 * ms, LossProb: 1},
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 3)
				p.probe(8*ms + 1)
				return 0
			},
			want: `8000001 probe tx=1/1000B exported=1 qdrop=0 loss=2 corrupt=0 dup=0 reorder=0 inflight=0
24000000 probe tx=3/3000B exported=3 qdrop=0 loss=3 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "impairment loss on the last frame, drained", cfg: cfg,
			script: func(p *txScript) sim.Time {
				p.send(0, 986, 1)
				p.s.At(20*ms, func() {
					impairBoth(p.a.link, Impairments{LossProb: 1, RNG: sim.NewRNG(5)})
				})
				p.send(21*ms, 986, 1)
				return 0
			},
			want: `10000000 arrive #1 len=1000 sum=16
29000000 probe tx=2/2000B exported=2 qdrop=0 loss=1 corrupt=0 dup=0 reorder=0 inflight=0
`},
		{name: "loss, corruption, duplication and reordering draws",
			cfg: LinkConfig{RateBps: 1_000_000, Delay: 2 * ms, QueueBytes: 6000, LossProb: 0.15},
			script: func(p *txScript) sim.Time {
				impairBoth(p.a.link, Impairments{
					LossProb: 0.1, CorruptProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, RNG: sim.NewRNG(5),
				})
				for i := 0; i < 12; i++ {
					// Bursts of five 300-byte frames, some landing on a busy
					// transmitter, some on an idle one, one burst overflowing.
					p.send(sim.Time(i)*7*ms, 286, 5)
					p.probe(sim.Time(i)*7*ms + 3*ms + 1)
				}
				p.send(90*ms, 986, 8)
				return 400 * ms
			},
			want: "hash:7d16f0c994fc9867"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTxScript(t, tc.cfg)
			got := p.run(tc.script(p))
			want := tc.want
			if h, ok := strings.CutPrefix(want, "hash:"); ok {
				sum := sha256.Sum256([]byte(got))
				if hex.EncodeToString(sum[:8]) != h {
					t.Fatalf("transcript hashes to %s, want %s:\n%s", hex.EncodeToString(sum[:8]), h, got)
				}
				return
			}
			if got != want {
				t.Fatalf("transcript moved.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestTxCompletedStaleReadIsBounded pins the one promise txCompleted makes to
// a reader outside the sender's domain: whatever mix of old and new
// transmitter state it observes, the count it holds back never exceeds what
// the counters hold.
func TestTxCompletedStaleReadIsBounded(t *testing.T) {
	_, a, _ := twoNodes(t, LinkConfig{})
	d := &a.link.dirs[0]
	d.busyUntil, d.curLen = 1, 1000 // a frame's busyUntil seen before its count
	if f, b := d.txCompleted(); f != 0 || b != 0 {
		t.Fatalf("nothing counted, one frame held back: %d frames / %d bytes, want 0 / 0", f, b)
	}
	d.txFrames.Inc()
	d.txBytes.Add(64)
	if f, b := d.txCompleted(); f != 0 || b != 0 { // the previous frame's curLen with this frame's count
		t.Fatalf("64 bytes counted, 1000 held back: %d frames / %d bytes, want 0 / 0", f, b)
	}
}
