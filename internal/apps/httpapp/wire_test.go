package httpapp

import (
	"strconv"
	"testing"

	"ddoshield/internal/apps/apptest"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// TestHTTPResponseSegmentation pins what one response looks like on the
// wire. The structure is asserted outright — the header pushed as a segment
// of its own; the body behind it, contiguous, in MSS-sized segments until
// the 16-segment window, which already holds the header, cuts the 16th
// short (from there on every ACK opens the window by what it acknowledged);
// the push flag on the last one only — and the bytes, sequence numbers and
// checksums included, against a hash recorded at the commit before the send
// path stopped copying: ISSUE 13 changed how the bytes get there, not the
// bytes.
func TestHTTPResponseSegmentation(t *testing.T) {
	const (
		goldenSegments = 53
		goldenHash     = 0xce366abc6ad58783
	)
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{MeanObjectBytes: 96 << 10, Seed: 11})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	sent := apptest.Capture(t, sh)
	conn := ch.DialTCP(sh.Addr(), DefaultPort)
	conn.OnConnect = func() { conn.Send([]byte("GET /obj/7 HTTP/1.1\r\nHost: tserver\r\n\r\n")) }
	conn.OnRemoteClose = conn.Close
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	segs, hash := sent()

	var data []apptest.Segment
	for _, sg := range segs {
		if len(sg.Payload) > 0 {
			data = append(data, sg)
		}
	}
	if len(data) < 18 {
		t.Fatalf("%d data segments: the body does not outlast one window", len(data))
	}
	head := data[0]
	size := parseContentLength(head.Payload)
	want := okHeaderPrefix + strconv.Itoa(size) + "\r\n\r\n"
	if string(head.Payload) != want || head.TCP.Flags != packet.FlagACK|packet.FlagPSH {
		t.Fatalf("first data segment %q flags %s, want the whole header and nothing else, pushed",
			head.Payload, packet.FlagString(head.TCP.Flags))
	}
	seq, body := head.TCP.Seq+uint32(len(head.Payload)), 0
	for i, sg := range data[1:] {
		if sg.TCP.Seq != seq {
			t.Fatalf("body segment %d: seq %d, want %d", i, sg.TCP.Seq, seq)
		}
		n, last := len(sg.Payload), i == len(data)-2
		switch {
		case i < 15 && n != netstack.MSS:
			t.Fatalf("body segment %d: %d bytes, want MSS", i, n)
		case i == 15 && n != netstack.MSS-len(head.Payload):
			// The window's 16th body segment shares it with the header.
			t.Fatalf("body segment %d: %d bytes, want MSS less the header", i, n)
		case n > netstack.MSS:
			t.Fatalf("body segment %d: %d bytes, more than MSS", i, n)
		}
		if pushed := sg.TCP.Flags&packet.FlagPSH != 0; pushed != last {
			t.Fatalf("body segment %d of %d: PSH %v", i, len(data)-1, pushed)
		}
		seq += uint32(n)
		body += n
	}
	if body != size {
		t.Fatalf("body segments carry %d bytes, Content-Length says %d", body, size)
	}
	if len(segs) != goldenSegments || hash != goldenHash {
		t.Fatalf("server sent %d segments hashing to %#x; the parent commit sent %d hashing to %#x",
			len(segs), hash, goldenSegments, uint64(goldenHash))
	}
}
