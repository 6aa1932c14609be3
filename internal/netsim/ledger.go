package netsim

import (
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// frameLedger is one PDES domain's share of the network's frame account.
// Every count moves only in its own domain's events, which never run on two
// goroutines at once, so none needs a lock or an atomic; the shares only mean something summed, because a frame
// can enter the network in one domain and be released in another.
type frameLedger struct {
	sent     uint64 // frames handed to a NIC
	copies   uint64 // flood fan-out, duplicate and corrupted copies
	released uint64 // frames whose buffer went back at a terminal point
	// The shares sit in one slice, and each is written by its own domain's
	// goroutine: keep them on separate cache lines.
	_ [40]byte
}

// release ends a frame's life at a terminal point and counts it.
func (lg *frameLedger) release(raw []byte) {
	lg.released++
	packet.ReleaseFrame(raw)
}

// end is release for a frame that may be borrowed from flood batch b: a
// borrowed frame is only counted, because the batch releases the buffer
// every copy shares (see arpBatch).
func (lg *frameLedger) end(raw []byte, b *arpBatch) {
	if b != nil {
		lg.released++
		return
	}
	lg.release(raw)
}

// ledger returns the account share of the domain dom (nil: serial).
func (n *Network) ledger(dom *sim.Domain) *frameLedger {
	if dom == nil {
		return &n.ledgers[0]
	}
	return &n.ledgers[dom.Index()]
}

// txLedger is the share of the direction's sending domain.
func (d *direction) txLedger() *frameLedger { return d.link.net.ledger(d.fromDom) }

// FrameLedger is a network's frame-conservation account. Every frame that
// enters the network — sent through a NIC, or copied by a switch flood or a
// link's duplicate or corruption impairment — is either still in flight or
// has been released exactly once where its life ended:
//
//	Sent + Copies - Released = InFlight
//
// Sent, Copies and Released are counted where frames enter and end;
// InFlight is what the links hold. Read it after a run or at an epoch
// barrier, never while domains execute.
type FrameLedger struct {
	Sent     uint64
	Copies   uint64
	Released uint64
	// InFlight counts frames waiting in a link's queue or scheduled to
	// arrive at the link's far end (LinkLedger.InFlight, summed).
	InFlight uint64
}

// Ledger sums the frame account over every domain and link.
func (n *Network) Ledger() FrameLedger {
	var f FrameLedger
	for i := range n.ledgers {
		lg := &n.ledgers[i]
		f.Sent += lg.sent
		f.Copies += lg.copies
		f.Released += lg.released
	}
	for _, l := range n.links {
		for side := range l.dirs {
			f.InFlight += l.LedgerSide(side).InFlight()
		}
	}
	return f
}

// LinkLedger is one link direction's frame account. Every frame offered to
// the direction, and every duplicate it made, has been delivered, dropped
// by a named cause, or is still in flight:
//
//	Offered + Duplicated = Delivered + QueueDrops + LossDrops + CutDrops + Queued + Arriving
//
// A corrupted frame replaces the original one for one and does not appear.
// Read it after a run or at an epoch barrier.
type LinkLedger struct {
	Offered    uint64 // frames handed to the direction by the sending port
	Duplicated uint64 // second copies made by the duplication impairment
	Delivered  uint64 // frames handed to the receiving port
	QueueDrops uint64 // dropped at the queue: link down or queue full
	LossDrops  uint64 // dropped by random loss or the loss impairment
	CutDrops   uint64 // in flight when the receiving side went down
	Queued     uint64 // waiting behind the transmitter
	Arriving   uint64 // scheduled to arrive and not yet arrived
}

// InFlight is the direction's frames not yet delivered or dropped.
func (lg LinkLedger) InFlight() uint64 { return lg.Queued + lg.Arriving }

// LedgerSide reports the account of the direction sending FROM ends[side].
func (l *Link) LedgerSide(side int) LinkLedger {
	d := &l.dirs[side]
	cut := d.inflightDrops.Value()
	return LinkLedger{
		Offered:    d.offered,
		Duplicated: d.dupFrames.Value(),
		Delivered:  d.delivered,
		QueueDrops: d.dropFrames.Value(),
		LossDrops:  d.lossFrames.Value(),
		CutDrops:   cut,
		Queued:     uint64(len(d.queue) - d.qhead),
		Arriving:   d.arrSeq - d.delivered - cut,
	}
}
