package netsim

import (
	"strconv"

	"ddoshield/internal/packet"
)

// Stage is a construction context for building one slice of the topology off
// the main goroutine. Fleet-scale builds split the access layer into
// per-edge-group stages: each stage owns a pre-reserved, contiguous range of
// MAC addresses and link creation indices (so identity assignment is a pure
// function of topology, not of goroutine interleaving), buffers every node
// and link it creates locally, and defers per-entity metric registration.
// Stages are created serially, in canonical group order, via NewStage;
// populated concurrently (one goroutine per stage, touching only
// stage-local and entity-local state); and folded back into the network
// serially, again in canonical order, via Merge. A build that runs its
// stages sequentially on one goroutine produces byte-identical topology —
// that equivalence is what testbed.TestSerialBuildByteIdentity pins.
type Stage struct {
	net *Network

	macNext, macEnd   uint64 // half-open reserved MAC ordinal range
	linkNext, linkEnd int    // half-open reserved link index range

	nodes []*Node
	links []*Link
	// regOrder replays per-entity metric registration at Merge in exactly
	// the order the stage created entities, so the metric-entity cap cuts
	// off at the same entity as a sequential build.
	regOrder []stagedReg
}

type stagedReg struct {
	nic  *NIC
	link *Link
}

// NewStage reserves identity ranges for a stage that will create exactly
// nics NICs and links links. Must be called from the construction
// goroutine, before any stage is being populated concurrently; reservations
// are handed out in call order. The count contract is strict — Merge panics
// if a stage allocated more or fewer identities than reserved, because a
// mismatch would silently shift every later entity's identity away from the
// equivalent sequential build.
func (n *Network) NewStage(nics, links int) *Stage {
	st := &Stage{
		net:      n,
		macNext:  n.macSeq + 1,
		macEnd:   n.macSeq + uint64(nics) + 1,
		linkNext: n.linkSeq,
		linkEnd:  n.linkSeq + links,
		nodes:    make([]*Node, 0, nics),
		links:    make([]*Link, 0, links),
		regOrder: make([]stagedReg, 0, nics+links),
	}
	n.macSeq += uint64(nics)
	n.linkSeq += links
	return st
}

func (st *Stage) nextMAC() uint64 {
	if st.macNext >= st.macEnd {
		panic("netsim: stage exceeded its reserved MAC range")
	}
	m := st.macNext
	st.macNext++
	return m
}

func (st *Stage) nextLinkIdx() int {
	if st.linkNext >= st.linkEnd {
		panic("netsim: stage exceeded its reserved link index range")
	}
	i := st.linkNext
	st.linkNext++
	return i
}

// NewNodeInDomain adds a host node to the stage. Unlike the network-level
// variant there is no duplicate-name rename — the caller must guarantee
// global uniqueness (fleet builders derive names from global device
// indices); Merge panics on a collision.
func (st *Stage) NewNodeInDomain(name string, domain int) *Node {
	node := &Node{net: st.net, name: name, stage: st}
	node.dom, node.sched = st.net.domainFor(domain)
	st.nodes = append(st.nodes, node)
	return node
}

// Connect wires two ports exactly like Network.Connect, except the link's
// creation index comes from the stage's reserved range and registration is
// deferred to Merge. Both ports must be stage-local or otherwise untouched
// by concurrent stages (a switch created before the fan-out and owned by
// this stage's group qualifies).
func (st *Stage) Connect(a, b Port, cfg LinkConfig) *Link {
	l := wireLink(st.net, a, b, cfg, st.nextLinkIdx())
	st.links = append(st.links, l)
	st.regOrder = append(st.regOrder, stagedReg{link: l})
	return l
}

// addNIC is the staged arm of Node.AddNIC.
func (st *Stage) addNIC(nd *Node) *NIC {
	nic := &NIC{node: nd, mac: packet.MACFromUint64(st.nextMAC()), index: len(nd.nics)}
	nic.name = nd.name + "/eth" + strconv.Itoa(nic.index)
	nd.nics = append(nd.nics, nic)
	st.regOrder = append(st.regOrder, stagedReg{nic: nic})
	return nic
}

// Merge folds populated stages back into the network, in argument order:
// nodes and links are adopted into the shared collections, node names claim
// their nameSet entries, and deferred metric registration replays in
// per-stage creation order. Call from the construction goroutine after
// every stage's populating goroutine has finished.
func (n *Network) Merge(stages ...*Stage) {
	for _, st := range stages {
		if st.macNext != st.macEnd {
			panic("netsim: stage allocated fewer MACs than reserved")
		}
		if st.linkNext != st.linkEnd {
			panic("netsim: stage allocated fewer link indices than reserved")
		}
		for _, nd := range st.nodes {
			if n.nameSet[nd.name] {
				panic("netsim: staged node name collision: " + nd.name)
			}
			n.nameSet[nd.name] = true
			nd.stage = nil
			n.nodes = append(n.nodes, nd)
		}
		n.links = append(n.links, st.links...)
		for _, r := range st.regOrder {
			switch {
			case r.nic != nil:
				n.registerNIC(r.nic)
			case r.link != nil:
				n.registerLink(r.link)
			}
		}
		st.nodes, st.links, st.regOrder = nil, nil, nil
	}
}
