package packet

import "sync"

// Frame buffers are recycled in two capacities. A control frame — ARP, or a
// TCP segment without payload — fits the small one; anything else up to a
// full-size Ethernet frame (14-byte header, 1500-byte MTU) fits FrameCap. A
// frame that needs more is allocated to measure and never recycled. Both
// capacities are deliberately not Go allocation size classes, so a buffer
// that append grew never passes for a recycled one.
const (
	smallFrameCap = 56
	FrameCap      = 1520
)

// The pools store array pointers, not slices, so a Put boxes nothing.
// sync.Pool is safe across PDES domains: a frame built in one domain may be
// released in another.
var (
	smallFrames = sync.Pool{New: func() any { return new([smallFrameCap]byte) }}
	frames      = sync.Pool{New: func() any { return new([FrameCap]byte) }}
)

// releaseHook, when set, takes over release: the race build's
// (frame_race.go) poisons the frame and never hands the buffer out again.
var releaseHook func(raw []byte)

// newFrame returns an empty frame buffer with room for n bytes: a recycled
// one when n fits a pool's capacity. Its contents are whatever the last
// owner left; the builders append every byte they return.
func newFrame(n int) []byte {
	switch {
	case n <= smallFrameCap:
		return smallFrames.Get().(*[smallFrameCap]byte)[:0]
	case n <= FrameCap:
		return frames.Get().(*[FrameCap]byte)[:0]
	}
	return make([]byte, 0, n)
}

// CloneFrame returns a copy of raw in a frame buffer of its own: the way to
// hand a second owner the same bytes (a switch's flood fan-out, a link's
// duplicate). The copy belongs to the caller, like a built frame.
func CloneFrame(raw []byte) []byte {
	return append(newFrame(len(raw)), raw...)
}

// ReleaseFrame ends a frame's life: its buffer goes back to its pool for
// the next Build* or CloneFrame. The caller must be the frame's only owner
// and must not touch raw (or any slice of it) afterwards. A buffer no pool
// handed out — any whose capacity is neither pool's, such as a caller's own
// scratch buffer or an oversized frame — is left to the collector, so a
// sender that reuses its own buffer for every frame stays correct.
func ReleaseFrame(raw []byte) {
	c := cap(raw)
	if c != smallFrameCap && c != FrameCap {
		return
	}
	if releaseHook != nil {
		releaseHook(raw)
		return
	}
	if c == smallFrameCap {
		smallFrames.Put((*[smallFrameCap]byte)(raw[:c]))
	} else {
		frames.Put((*[FrameCap]byte)(raw[:c]))
	}
}
