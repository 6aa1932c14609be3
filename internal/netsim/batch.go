package netsim

import (
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// batchARPFloods turns flood batching on. It is always on in the product;
// tests turn it off to check that batching changes nothing but the event
// count.
var batchARPFloods = true

// An arpBatch is one event standing for the copies of one flooded broadcast
// ARP request that land on host NICs at one instant. On a shared segment a
// host ARPs for every peer it talks to, and the switch hands the request to
// every other host, nearly all of which read it and change nothing: it asks
// for someone else, and they hold no entry for the asker, or one that
// already says what the request says. Each such copy cost an arrival event.
//
// Relay is unchanged: every port still runs Link.send and transmit, which
// move the transmitter, the counters, the loss and impairment draws and the
// queue, and use up the direction's delivery key. A copy joins the batch
// instead of scheduling its own arrival (join) only when the request is
// unsampled, the link stays in the switch's domain, the receiver is a NIC
// whose handler answers SetARPInert, the copy lands at the batch's instant,
// no impairment corrupted or duplicated it, and every frame its direction
// sent before it lands earlier. A duplicate or a reordered frame can land
// at a later copy's instant or after it; without them a direction's
// arrivals follow its send order anyway. Every other copy, a busy port's
// that waits in its queue among them, takes the ordinary path.
//
// The batch owns one frame buffer, the request the switch received, and
// every egress port borrows it (Link.send with the batch). A copy takes a
// buffer of its own only where it leaves the batch: when it waits in a
// queue, is duplicated, or is delivered or posted at its own key. A borrowed
// copy dropped at the queue or by loss, or settled in the batch, is only
// counted as released; the batch releases its buffer once, when it has
// fired (or at once, when no copy joined it). The frame ledger counts what
// it counted with one buffer per copy.
//
// The batch fires at the smallest of its members' keys, and asks each
// member again. A member whose receiving side is down is dropped in flight,
// as its delivery would drop it. A member whose link has no taps, whose NIC
// has no ingress filter and whose owner answers that the request changes
// nothing is counted exactly as its delivery would count it — delivered on
// the direction, rx frames and bytes on the NIC, the frame released — and
// that is all its delivery would have done. Any other member is delivered
// at its own key: right away if it holds the batch's key, otherwise by an
// arrival event at that key, so a tap, a filter or the host's reply
// happens where it always did.
//
// Asking at the smallest key rather than at each member's own is exact
// because nothing can change a member's answer in between. Normal events of
// the instant have all run before any keyed one, events scheduled from a
// keyed handler run after all of them, and the keyed events in between are
// deliveries: a host's state moves only on a delivery into its own NIC, and
// none lands on the member's direction at that instant ahead of it.
type arpBatch struct {
	sw      *Switch
	req     packet.ARP // the request every member carries
	raw     []byte     // the one buffer every member borrows
	at      sim.Time   // the members' arrival instant
	key     uint64     // the smallest member key: where the batch fires
	members []batchMember
	fn      sim.Handler // bound once to fire
}

// batchMember is one copy in a batch: its direction and the delivery key its
// direction gave it.
type batchMember struct {
	dir *direction
	key uint64
}

// newBatch returns an empty batch owning raw, the request req, reusing a
// batch that has fired.
func (s *Switch) newBatch(req packet.ARP, raw []byte) *arpBatch {
	var b *arpBatch
	if n := len(s.spare); n > 0 {
		b = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		b = &arpBatch{sw: s}
		b.fn = b.fire
	}
	b.req, b.raw = req, raw
	return b
}

// launch schedules a batch that gathered members and retires one that
// gathered none.
func (s *Switch) launch(b *arpBatch) {
	if len(b.members) == 0 {
		b.retire()
		return
	}
	s.sched.AtKeyed(b.at, b.key, b.fn)
}

// retire releases the batch's buffer and returns the batch to its switch
// for reuse. Every copy has been counted where its life ended, so the
// release is not counted again.
func (b *arpBatch) retire() {
	packet.ReleaseFrame(b.raw)
	b.raw = nil
	b.sw.spare = append(b.sw.spare, b)
}

// own returns a buffer of its own for a copy that leaves batch b: a copy of
// b's buffer, or raw itself when b is nil and raw is owned already.
func own(raw []byte, b *arpBatch) []byte {
	if b != nil {
		return packet.CloneFrame(raw)
	}
	return raw
}

// join makes the copy d is about to schedule for instant at a member of the
// batch, using up its delivery key, and reports whether it did; a copy that
// does not join is given a buffer of its own and scheduled by the caller as
// usual.
func (b *arpBatch) join(d *direction, at sim.Time) bool {
	nic, ok := d.link.ends[1-d.from].(*NIC)
	switch {
	case !ok || nic.arpInert == nil || d.fromDom != d.toDom:
		return false
	case len(b.members) > 0 && at != b.at:
		return false
	case at <= d.lastArrive:
		return false
	}
	d.lastArrive = at
	key := d.nextKey()
	if len(b.members) == 0 {
		b.at, b.key = at, key
	} else if key < b.key {
		b.key = key
	}
	b.members = append(b.members, batchMember{dir: d, key: key})
	return true
}

// fire settles every member at the batch's instant, then retires the batch.
func (b *arpBatch) fire() {
	now := b.sw.sched.Now()
	settled := uint64(0)
	for i := range b.members {
		m := &b.members[i]
		d, l := m.dir, m.dir.link
		side := 1 - d.from
		nic := l.ends[side].(*NIC)
		switch {
		case !l.up[side]:
			d.inflightDrops.Inc()
			settled++
		case len(l.taps) == 0 && nic.ingress == nil && nic.arpInert != nil && nic.arpInert(b.req):
			d.delivered++
			nic.rxFrames.Inc()
			nic.rxBytes.Add(uint64(len(b.raw)))
			settled++
		case m.key == b.key:
			d.deliver(packet.CloneFrame(b.raw), trace.Context{})
		default:
			d.post(now, m.key, packet.CloneFrame(b.raw), trace.Context{})
		}
	}
	// Every member lives in the switch's domain (see join).
	b.sw.ledger().released += settled
	clear(b.members)
	b.members = b.members[:0]
	b.retire()
}
