package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestRNGBytesMatchesMathRandRead pins Bytes to the stream it replaced:
// math/rand.(*Rand).Read over the same source. One stream runs through call
// sizes that end before, on and after a seven-byte draw boundary, with other
// draws between the calls, because Read's leftover bytes survive those.
func TestRNGBytesMatchesMathRandRead(t *testing.T) {
	const seed = 20240613
	g := NewRNG(seed)
	src := &xoshiroSource{}
	src.Seed(seed)
	want := rand.New(src)

	sizes := []int{0, 1, 6, 7, 8, 13, 1400, 65536}
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			got, ref := make([]byte, n), make([]byte, n)
			g.Bytes(got)
			if _, err := want.Read(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("round %d, %d bytes: Bytes and math/rand.Read disagree", round, n)
			}
			switch i % 3 {
			case 0:
				if a, b := g.Int63(), want.Int63(); a != b {
					t.Fatalf("Int63 after %d bytes: %d vs %d", n, a, b)
				}
			case 1:
				if a, b := g.Uniform(0, 1), want.Float64(); a != b {
					t.Fatalf("Uniform after %d bytes: %v vs %v", n, a, b)
				}
			case 2:
				if a, b := g.Intn(1000), want.Intn(1000); a != b {
					t.Fatalf("Intn after %d bytes: %d vs %d", n, a, b)
				}
			}
		}
	}
}
