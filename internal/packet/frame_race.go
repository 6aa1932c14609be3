//go:build race

package packet

// The race build turns frame release into a use-after-release detector.
// Release overwrites the frame with poison and never hands its buffer out
// again, so a reader that kept a frame past its last owner sees 0xDB
// instead of plausible bytes: a poisoned run's digests then differ from a
// plain run's, and the race detector reports a reader in another goroutine.
// Releasing a frame that is still poisoned panics (a double release). Not
// recycling keeps the race build's cost near an allocation per frame: a
// sync.Pool round trip under the detector costs more than the frame.

var poisoned = func() (p [FrameCap]byte) {
	for i := range p {
		p[i] = 0xDB
	}
	return p
}()

func init() {
	releaseHook = func(raw []byte) {
		if len(raw) > 0 && string(raw) == string(poisoned[:len(raw)]) {
			panic("packet: frame released twice")
		}
		copy(raw, poisoned[:])
	}
}
