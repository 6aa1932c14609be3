package trace

import (
	"bytes"
	"strings"
	"testing"

	"ddoshield/internal/sim"
)

func flowN(n uint32) Flow {
	return Flow{Src: 0x0a000000 | n, Dst: 0x0a000101, SrcPort: uint16(1000 + n), DstPort: 80, Proto: 6}
}

func TestSamplingDeterministicAndRateBounded(t *testing.T) {
	a := New(Config{Seed: 7, SampleRate: 1.0 / 8})
	b := New(Config{Seed: 7, SampleRate: 1.0 / 8})
	sampled := 0
	const n = 4096
	for i := uint32(0); i < n; i++ {
		f := flowN(i)
		if a.sampleFlow(f) != b.sampleFlow(f) {
			t.Fatalf("flow %d: same seed disagrees", i)
		}
		if a.sampleFlow(f) {
			sampled++
		}
	}
	// 1/8 of 4096 = 512 expected; allow generous slack for hash variance.
	if sampled < n/16 || sampled > n/4 {
		t.Fatalf("sampled %d of %d flows at rate 1/8", sampled, n)
	}
	if New(Config{Seed: 99, SampleRate: 1}).sampleFlow(flowN(1)) != true {
		t.Fatal("rate 1 must sample everything")
	}
	if New(Config{Seed: 99}).sampleFlow(flowN(1)) {
		t.Fatal("rate 0 must sample nothing")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	f := flowN(1)
	oc := tr.OriginKind(100, f, KindAttack, "flood-syn", "bot-1")
	if !oc.Sampled() {
		t.Fatal("origin not sampled at rate 1")
	}
	hop := oc.Start(100, "nic-tx", "bot-1/eth0")
	hop.Finish(100)
	link := hop.Start(100, "link", "bot-1/eth0->sw/port0")
	oc.Finish(110)
	link.Finish(2100)
	del := link.Start(2100, "deliver", "10.0.1.1")
	del.FinishTerminal(2150)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Finish order: nic-tx, origin, link, deliver.
	if spans[0].Name != "nic-tx" || spans[1].Name != "flood-syn" || spans[2].Name != "link" || spans[3].Name != "deliver" {
		t.Fatalf("unexpected finish order: %v %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name, spans[3].Name)
	}
	root := spans[1]
	if !root.Root() || root.Flow != f || root.Kind != KindAttack {
		t.Fatalf("root span mangled: %+v", root)
	}
	if spans[2].Parent != spans[0].ID || spans[3].Parent != spans[2].ID {
		t.Fatal("span chain broken")
	}
	if got := spans[3].Latency(); got != 50 {
		t.Fatalf("deliver latency = %v, want 50", got)
	}
	if tr.Active() != 0 {
		t.Fatalf("%d spans still active", tr.Active())
	}

	// Double finish is a no-op.
	before := len(tr.Spans())
	del.Finish(9999)
	if len(tr.Spans()) != before {
		t.Fatal("double Finish recorded a second span")
	}
}

func TestDropCauses(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	oc := tr.OriginKind(0, flowN(2), KindBenign, "tcp-tx", "10.0.2.1")
	link := oc.Start(0, "link", "a->b")
	link.Drop(5, DropQueueFull)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Drop != DropQueueFull || !spans[0].Dropped() {
		t.Fatalf("drop span: %+v", spans)
	}
	for c := DropCause(1); c < numDropCauses; c++ {
		if c.String() == "" {
			t.Fatalf("cause %d has no name", c)
		}
		if ParseDropCause(c.String()) != c {
			t.Fatalf("cause %d does not round-trip", c)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if ParseKind(k.String()) != k {
			t.Fatalf("kind %d does not round-trip", k)
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{SampleRate: 1, SpanCapacity: 4})
	for i := 0; i < 10; i++ {
		oc := tr.OriginKind(sim.Time(i), flowN(uint32(i)), KindBenign, "tcp-tx", "h")
		oc.Finish(sim.Time(i + 1))
	}
	if got := tr.Evicted(); got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Start != sim.Time(6+i) {
			t.Fatalf("ring[%d].Start = %v, want %v (oldest-first order)", i, s.Start, 6+i)
		}
	}
}

func TestExportRoundTripAndDeterminism(t *testing.T) {
	run := func() []Span {
		tr := New(Config{Seed: 3, SampleRate: 1})
		oc := tr.OriginKind(10, flowN(7), KindAttack, "flood-udp", "bot-2")
		l := oc.Start(10, "link", "a->b")
		oc.Finish(12)
		l.Finish(500)
		d := l.Start(500, "deliver", "srv")
		d.Drop(510, DropNoSocket)
		b := tr.OriginKind(20, Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17}, KindBenign, "udp-tx", "dev-1")
		b.FinishTag(30, "alert")
		return tr.Spans()
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteSpans(&buf1, run()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(&buf2, run()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("identical runs serialized differently")
	}
	back, err := ReadSpans(strings.NewReader(buf1.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := run()
	if len(back) != len(want) {
		t.Fatalf("read %d spans, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("span %d: %+v != %+v", i, back[i], want[i])
		}
	}
}

func TestFlowStringRoundTrip(t *testing.T) {
	f := Flow{Src: 0x0a00c805, Dst: 0x0a000101, SrcPort: 1024, DstPort: 80, Proto: 6}
	s := FlowString(f)
	if s != "10.0.200.5:1024>10.0.1.1:80/6" {
		t.Fatalf("FlowString = %q", s)
	}
	got, err := ParseFlow(s)
	if err != nil || got != f {
		t.Fatalf("ParseFlow(%q) = %+v, %v", s, got, err)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	oc := tr.Origin(0, flowN(1), "x", "y")
	if oc.Sampled() {
		t.Fatal("nil tracer sampled a flow")
	}
	oc.Start(0, "a", "b").Finish(1)
	oc.Drop(1, DropLoss)
	oc.FinishTerminal(1)
	if tr.Spans() != nil || tr.Active() != 0 || tr.Evicted() != 0 {
		t.Fatal("nil tracer accessors not zero")
	}
}
