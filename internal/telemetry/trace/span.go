package trace

import "ddoshield/internal/sim"

// TraceID identifies one traced packet's causal chain, from origin span to
// terminal delivery, drop, or IDS verdict. IDs are assigned sequentially in
// event order, so a fixed seed yields identical IDs run to run.
type TraceID uint64

// SpanID identifies one hop-level span within the tracer. Span IDs share a
// single sequence across traces so a span's ID alone is unambiguous.
type SpanID uint64

// Flow is the 5-tuple a trace is keyed by. Addresses are big-endian uint32
// IPv4 values (packet.Addr.Uint32 form) so the package stays independent of
// internal/packet and can in turn be imported by it.
type Flow struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Kind classifies a trace's origin: benign application traffic, botnet
// attack traffic, or C2 control traffic.
type Kind uint8

// Trace kinds.
const (
	KindUnknown Kind = iota
	KindBenign
	KindAttack
	KindC2

	numKinds = 4
)

var kindNames = [numKinds]string{"unknown", "benign", "attack", "c2"}

// String renders the kind label used in metrics and trace output.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind inverts Kind.String; unrecognized names map to KindUnknown.
func ParseKind(s string) Kind {
	for i, n := range kindNames {
		if n == s {
			return Kind(i)
		}
	}
	return KindUnknown
}

// DropCause tags a span terminated by a discard rather than a hand-off, one
// cause per discard point in netsim/netstack.
type DropCause uint8

// Drop causes.
const (
	DropNone          DropCause = iota
	DropLinkDown                // sent while the link was administratively down
	DropQueueFull               // drop-tail queue overflow
	DropLoss                    // random or impairment loss
	DropInFlightCut             // on the wire when the link went down
	DropPartition               // crossed a switch partition boundary
	DropIngressFilter           // rejected by a NIC ingress filter (firewall)
	DropUnattached              // sent on a NIC with no link (churn)
	DropMalformed               // failed Ethernet/IP/TCP/UDP dissection
	DropBadDst                  // addressed to a MAC/IP this host doesn't own
	DropSynBacklog              // SYN discarded by listener backlog pressure
	DropNoRoute                 // unroutable destination or ARP failure
	DropNoSocket                // no listener/socket on the destination port
	DropMitigated               // cut by the inline mitigation verdict cache
	DropARPSuppressed           // ARP request for an address the network's directory says nobody owns

	numDropCauses = 15
)

var dropNames = [numDropCauses]string{
	"", "link-down", "queue-full", "loss", "inflight-cut", "partition",
	"ingress-filter", "unattached", "malformed", "bad-dst", "syn-backlog",
	"no-route", "no-socket", "mitigated", "arp-suppressed",
}

// String renders the cause label used in metrics and trace output (empty
// for DropNone).
func (d DropCause) String() string {
	if int(d) < len(dropNames) {
		return dropNames[d]
	}
	return "unknown"
}

// ParseDropCause inverts DropCause.String; unrecognized names (and the
// empty string) map to DropNone.
func ParseDropCause(s string) DropCause {
	if s == "" {
		return DropNone
	}
	for i, n := range dropNames {
		if n == s {
			return DropCause(i)
		}
	}
	return DropNone
}

// Span is one finished hop of a trace: origin ("flood-syn", "tcp-tx", ...),
// "nic-tx", "link", "switch", "nic-rx", "deliver", or "ids-window". Spans
// form a chain/tree via Parent; the root span (Parent == 0) carries the
// flow 5-tuple as provenance for the whole trace.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // 0 for the origin span
	Name   string
	Actor  string
	Kind   Kind
	Flow   Flow // populated on root spans only
	Start  sim.Time
	End    sim.Time
	Drop   DropCause
	Tag    string // verdict tag ("alert"/"clear") or hop annotation
}

// Root reports whether s is a trace's origin span.
func (s Span) Root() bool { return s.Parent == 0 }

// Dropped reports whether the span ended in a discard.
func (s Span) Dropped() bool { return s.Drop != DropNone }

// Latency is the span's duration in simulated time.
func (s Span) Latency() sim.Time { return s.End - s.Start }
