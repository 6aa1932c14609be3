package ftpapp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ddoshield/internal/apps/apptest"
	"ddoshield/internal/sim"
)

// TestFTPTransferWireIdentity pins one whole FTP session — greeting, login,
// passive open, the file over its data connection, goodbye — to what the
// commit before ISSUE 13 put on the wire: the structure asserted outright
// (the 150 reply leaves before the file's first segment and states its
// size; the data connection carries exactly that many bytes), every byte,
// sequence number and checksum through the recorded hash.
func TestFTPTransferWireIdentity(t *testing.T) {
	const (
		goldenSegments = 68
		goldenHash     = 0x6e9fb48031d4154c
	)
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1, MeanFileBytes: 96 << 10})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	sent := apptest.Capture(t, sh)
	cl := NewClient(sh.Addr(), "iot", "iot", 5*time.Second, 3)
	cl.Attach(ch)
	for done := uint64(0); done == 0; _, done, _, _ = cl.Stats() {
		if s.Now() > 120*sim.Second {
			t.Fatal("no session completed in two minutes")
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

	size, announced, fileBytes := 0, false, 0
	for _, sg := range segs {
		switch {
		case sg.TCP.SrcPort == DefaultPort && bytes.HasPrefix(sg.Payload, []byte("150 ")):
			if _, err := fmt.Sscanf(string(sg.Payload), "150 opening data connection (%d bytes)\r\n", &size); err != nil {
				t.Fatalf("150 reply %q: %v", sg.Payload, err)
			}
			announced = true
		case sg.TCP.SrcPort != DefaultPort && len(sg.Payload) > 0:
			if !announced {
				t.Fatal("file data on the wire before the 150 reply")
			}
			fileBytes += len(sg.Payload)
		}
	}
	if !announced || fileBytes != size {
		t.Fatalf("data connection carried %d bytes, the 150 reply (seen: %v) announced %d", fileBytes, announced, size)
	}
	if len(segs) != goldenSegments || hash != goldenHash {
		t.Fatalf("server sent %d segments hashing to %#x; the parent commit sent %d hashing to %#x",
			len(segs), hash, goldenSegments, uint64(goldenHash))
	}
}
