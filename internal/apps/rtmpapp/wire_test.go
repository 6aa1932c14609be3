package rtmpapp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ddoshield/internal/apps/apptest"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// TestRTMPStreamWireIdentity pins one whole stream to what the commit before
// ISSUE 13 put on the wire: the structure asserted outright (the OK line
// pushed as its own segment and stating the stream's size; that many zero
// bytes behind it, 4 KiB chunks cut at MSS with the push flag closing each
// chunk), every byte, sequence number and checksum through the recorded
// hash.
func TestRTMPStreamWireIdentity(t *testing.T) {
	const (
		goldenSegments = 640
		goldenHash     = 0xfed1f716c578b1f8
	)
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{BitrateBps: 1_000_000, MeanStreamDur: 2 * time.Second, Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	sent := apptest.Capture(t, sh)
	cl := NewClient(sh.Addr(), 3*time.Second, 2)
	cl.Attach(ch)
	for finished := uint64(0); finished == 0; _, finished, _ = cl.Stats() {
		if s.Now() > 120*sim.Second {
			t.Fatal("no stream finished in two minutes")
		}
		if err := s.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cl.Detach()
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	segs, hash := sent()

	var data []apptest.Segment
	for _, sg := range segs {
		if len(sg.Payload) > 0 {
			data = append(data, sg)
		}
	}
	if len(data) < 2 {
		t.Fatalf("%d data segments", len(data))
	}
	var size int
	if _, err := fmt.Sscanf(string(data[0].Payload), "OK stream bytes=%d\r\n", &size); err != nil || data[0].TCP.Flags&packet.FlagPSH == 0 {
		t.Fatalf("first data segment %q flags %s: %v", data[0].Payload, packet.FlagString(data[0].TCP.Flags), err)
	}
	media, inChunk := 0, 0
	for i, sg := range data[1:] {
		if len(bytes.Trim(sg.Payload, "\x00")) != 0 {
			t.Fatalf("media segment %d is not zeros", i)
		}
		media += len(sg.Payload)
		inChunk += len(sg.Payload)
		endsChunk := inChunk == 4<<10 || media == size
		if !endsChunk && len(sg.Payload) != netstack.MSS {
			t.Fatalf("media segment %d: %d bytes inside a chunk, want MSS", i, len(sg.Payload))
		}
		if pushed := sg.TCP.Flags&packet.FlagPSH != 0; pushed != endsChunk {
			t.Fatalf("media segment %d: PSH %v, chunk ends here %v", i, pushed, endsChunk)
		}
		if endsChunk {
			inChunk = 0
		}
	}
	if media != size {
		t.Fatalf("stream carried %d media bytes, the OK line announced %d", media, size)
	}
	if len(segs) != goldenSegments || hash != goldenHash {
		t.Fatalf("server sent %d segments hashing to %#x; the parent commit sent %d hashing to %#x",
			len(segs), hash, goldenSegments, uint64(goldenHash))
	}
}
