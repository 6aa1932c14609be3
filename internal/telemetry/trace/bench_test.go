package trace

import "testing"

// TestUnsampledTraceAllocFree pins the fast path the entire simulation rides
// on: a packet whose flow is not sampled must cost zero allocations at the
// origin decision and at every downstream Context method. CI runs this by
// name in the telemetry-overhead job.
func TestUnsampledTraceAllocFree(t *testing.T) {
	tr := New(Config{Seed: 1, SampleRate: 1e-18}) // nonzero rate, ~never samples
	f := Flow{Src: 0x0a000003, Dst: 0x0a000101, SrcPort: 40000, DstPort: 80, Proto: 6}
	if tr.sampleFlow(f) {
		t.Skip("flow unexpectedly sampled at 1e-18; pick another tuple")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		oc := tr.Origin(0, f, "tcp-tx", "host")
		hop := oc.Start(0, "nic-tx", "host/eth0")
		hop.Finish(0)
		link := hop.Start(0, "link", "a->b")
		link.Drop(1, DropQueueFull)
		oc.FinishTerminal(2)
	})
	if allocs != 0 {
		t.Fatalf("unsampled trace path allocated %.1f/op, want 0", allocs)
	}
}

func BenchmarkOriginUnsampled(b *testing.B) {
	tr := New(Config{Seed: 1, SampleRate: 1e-18})
	f := Flow{Src: 0x0a000003, Dst: 0x0a000101, SrcPort: 40000, DstPort: 80, Proto: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oc := tr.Origin(0, f, "tcp-tx", "host")
		oc.Finish(0)
	}
}

func BenchmarkSampledHopChain(b *testing.B) {
	tr := New(Config{SampleRate: 1, SpanCapacity: 1024})
	f := Flow{Src: 0x0a000003, Dst: 0x0a000101, SrcPort: 40000, DstPort: 80, Proto: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oc := tr.OriginKind(0, f, KindAttack, "flood-syn", "bot")
		hop := oc.Start(0, "link", "a->b")
		oc.Finish(1)
		hop.Finish(2)
		del := hop.Start(2, "deliver", "srv")
		del.FinishTerminal(3)
	}
}
