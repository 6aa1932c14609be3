package features

import (
	"math"
	"math/rand"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// randomRowBasic draws a packet from small field domains, so that random
// pairs often share a key, with every field RowKey ignores drawn freely.
func randomRowBasic(rng *rand.Rand) Basic {
	return Basic{
		Time:    sim.Time(rng.Int63n(int64(sim.Second))),
		Src:     packet.AddrFromUint32(rng.Uint32()),
		Dst:     packet.AddrFromUint32(rng.Uint32()),
		Proto:   []uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.Intn(2)],
		SrcPort: uint16(rng.Intn(3)),
		DstPort: []uint16{80, 65535}[rng.Intn(2)],
		Length:  []int{54, 60, 1<<rowLenBits - 1}[rng.Intn(3)],
		Flags:   uint8(rng.Intn(8))<<5 | []uint8{packet.FlagSYN, packet.FlagACK | packet.FlagPSH}[rng.Intn(2)],
		Seq:     rng.Uint32(),
	}
}

func vectorBits(b *Basic, st *Stats) []uint64 {
	var out []uint64
	for _, v := range AppendVector(nil, b, st) {
		out = append(out, math.Float64bits(v))
	}
	return out
}

func sameUint64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRowKeyDeterminesVector: under one Stats, two packets with equal keys
// get bit-identical vectors (what lets the IDS classify a window's distinct
// rows only), and for TCP and UDP packets unequal keys give unequal vectors
// (the key drops nothing the vector reads). A length the key cannot hold is
// reported, not folded into another row.
func TestRowKeyDeterminesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	st := ComputeStats([]Basic{randomRowBasic(rng), randomRowBasic(rng), randomRowBasic(rng)})
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := randomRowBasic(rng), randomRowBasic(rng)
		ka, oka := RowKey(&a)
		kb, okb := RowKey(&b)
		if !oka || !okb {
			t.Fatalf("lengths %d and %d are keyable", a.Length, b.Length)
		}
		same := sameUint64s(vectorBits(&a, &st), vectorBits(&b, &st))
		if (ka == kb) != same {
			t.Fatalf("keys %#x, %#x (equal %v) but vectors equal %v:\n%+v\n%+v", ka, kb, ka == kb, same, a, b)
		}
		if same {
			equal++
		}
	}
	if equal < 100 {
		t.Fatalf("only %d of 20000 pairs shared a key: the draw tests nothing", equal)
	}

	for _, n := range []int{-1, 1 << rowLenBits, math.MaxInt} {
		b := Basic{Proto: packet.ProtoTCP, Length: n}
		if _, ok := RowKey(&b); ok {
			t.Errorf("length %d keyed", n)
		}
	}
}
