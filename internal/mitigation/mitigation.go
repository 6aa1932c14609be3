// Package mitigation closes the detection→response loop — the "shield" in
// DDoShield: an inline firewall at a NIC's ingress built around an
// allocation-free per-flow verdict cache, and a Responder that converts
// the Real-Time IDS Unit's per-window verdicts into time-limited rules.
// DDoSim's §III-A positions its experiments as "benchmarks for evaluating
// the effectiveness of defense mechanisms, ranging from intrusion
// detection systems to traffic filtering and mitigation techniques"; this
// package implements the filtering half and meters it: every counter is a
// shared telemetry instance, every drop can carry a causal-trace span, and
// cache aging runs deterministically on the owning domain's scheduler.
package mitigation

import (
	"time"

	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// Rule kinds recorded in verdict-cache entries so per-rule hit counters
// attribute every drop to the rule class that installed the verdict.
const (
	ruleNone uint8 = iota
	ruleAddr
	rulePrefix
	ruleFlow
)

// flowTTL bounds how long any cached verdict lives before the flow is
// re-evaluated against the rule tables.
const flowTTL = 5 * time.Second

// FirewallConfig tunes the inline stage. The zero value is usable.
type FirewallConfig struct {
	// CacheSize is the verdict-cache capacity, rounded up to a power of
	// two (default 1024).
	CacheSize int
	// SweepInterval is the deterministic aging cadence: every interval the
	// owning scheduler retires expired cache entries so table occupancy
	// and the age histogram do not depend on packet arrivals (default 1 s;
	// negative disables the sweep, leaving lazy aging only).
	SweepInterval time.Duration
	// Classify is the ground-truth flow oracle (the testbed supplies its
	// trace-kind classifier). When set, drops split into collateral
	// (benign) and attack counters, admitted attack frames feed the
	// residual-throughput counter, and time-to-mitigate anchors on the
	// first attack-classified drop.
	Classify func(trace.Flow) trace.Kind
	// Registry, when set, exports the firewall's counters under
	// mitigation_* metric names.
	Registry *telemetry.Registry
	// Name labels metrics and the mitigation hop's span actor
	// (default "fw").
	Name string
}

func (c FirewallConfig) withDefaults() FirewallConfig {
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	if c.Name == "" {
		c.Name = "fw"
	}
	return c
}

// flowRule is one authoritative per-flow verdict installed by the
// Responder; the cache memoizes it like any other rule.
type flowRule struct {
	verdict Verdict
	keep    uint32
	expiry  sim.Time
}

// prefixRule is one aggregated source-prefix block. Rules live in a slice
// kept sorted by (address, bits): evaluation order — and therefore which
// rule a cached verdict's expiry derives from — never depends on map
// iteration order.
type prefixRule struct {
	prefix packet.Prefix
	expiry sim.Time
}

// Firewall drops frames from blocked sources before the protected host's
// stack sees them. The hot path consults the verdict cache first; a miss
// evaluates flow, then address, then prefix rules and memoizes the result.
// Rules expire after a TTL so false positives heal, and every rule change
// bumps a revision that invalidates all memoized verdicts at once.
type Firewall struct {
	sched *sim.Scheduler
	cfg   FirewallConfig

	cache *verdictCache
	rev   uint32

	addrs    map[packet.Addr]sim.Time // addr → expiry
	prefixes []prefixRule             // sorted by (addr, bits)
	flows    map[flowKey]flowRule

	// Shared telemetry counters (the PR 3 pattern): the registry exports
	// these same instances and Stats() is a thin value adapter, so there
	// is exactly one source of truth per count.
	evaluated   telemetry.Counter
	dropped     telemetry.Counter
	rateLimited telemetry.Counter
	// Classify-attributed accounting: benign frames wrongly dropped
	// (collateral damage), attack frames dropped (the defense working) and
	// attack frames still admitted (residual attack throughput).
	collateralDrops telemetry.Counter
	attackDrops     telemetry.Counter
	attackPassed    telemetry.Counter
	// Per-rule-kind drop attribution.
	ruleHitsAddr   telemetry.Counter
	ruleHitsPrefix telemetry.Counter
	ruleHitsFlow   telemetry.Counter

	// firstMitigated is the time-to-mitigate end anchor: the first drop of
	// an attack-classified frame (any frame when no classifier is set).
	firstMitigated     sim.Time
	haveFirstMitigated bool
}

// NewFirewall installs a firewall with default configuration on nic's
// ingress path. sched must be the scheduler of nic's owning domain.
func NewFirewall(sched *sim.Scheduler, nic *netsim.NIC) *Firewall {
	return NewFirewallConfig(sched, nic, FirewallConfig{})
}

// NewFirewallConfig installs a configured firewall on nic's ingress path.
// sched must be the scheduler of nic's owning domain: rule installs,
// packet evaluation and the aging sweep all mutate state there, which is
// what keeps partitioned campaigns byte-identical.
func NewFirewallConfig(sched *sim.Scheduler, nic *netsim.NIC, cfg FirewallConfig) *Firewall {
	cfg = cfg.withDefaults()
	fw := &Firewall{
		sched: sched,
		cfg:   cfg,
		addrs: make(map[packet.Addr]sim.Time),
		flows: make(map[flowKey]flowRule),
	}
	l := telemetry.L("fw", cfg.Name)
	reg := cfg.Registry
	fw.cache = newVerdictCache(cfg.CacheSize, reg.NewHistogram("mitigation_cache_age_us", cacheAgeBounds, l))
	reg.RegisterCounter(&fw.evaluated, "mitigation_frames_evaluated_total", l)
	reg.RegisterCounter(&fw.dropped, "mitigation_frames_dropped_total", l)
	reg.RegisterCounter(&fw.rateLimited, "mitigation_frames_rate_limited_total", l)
	reg.RegisterCounter(&fw.collateralDrops, "mitigation_collateral_drops_total", l)
	reg.RegisterCounter(&fw.attackDrops, "mitigation_attack_drops_total", l)
	reg.RegisterCounter(&fw.attackPassed, "mitigation_attack_passed_total", l)
	reg.RegisterCounter(&fw.ruleHitsAddr, "mitigation_rule_hits_total", l, telemetry.L("rule", "addr"))
	reg.RegisterCounter(&fw.ruleHitsPrefix, "mitigation_rule_hits_total", l, telemetry.L("rule", "prefix"))
	reg.RegisterCounter(&fw.ruleHitsFlow, "mitigation_rule_hits_total", l, telemetry.L("rule", "flow"))
	reg.RegisterCounter(&fw.cache.hits, "mitigation_cache_hits_total", l)
	reg.RegisterCounter(&fw.cache.misses, "mitigation_cache_misses_total", l)
	reg.RegisterCounter(&fw.cache.inserts, "mitigation_cache_inserts_total", l)
	reg.RegisterCounter(&fw.cache.evictions, "mitigation_cache_evictions_total", l)
	reg.RegisterCounter(&fw.cache.expirations, "mitigation_cache_expired_total", l)
	reg.RegisterGaugeFunc(func() float64 {
		return float64(fw.cache.size(fw.sched.Now(), fw.rev))
	}, "mitigation_cache_entries", l)
	if cfg.SweepInterval > 0 {
		sched.Every(cfg.SweepInterval, func() {
			fw.cache.sweep(fw.sched.Now(), fw.rev)
		})
	}
	nic.SetIngressFilterCtx(fw.admit)
	return fw
}

// bumpRev invalidates every memoized verdict: the cached decisions were
// computed against a rule set that no longer exists.
func (fw *Firewall) bumpRev() { fw.rev++ }

// BlockAddr drops traffic from a single source for ttl.
func (fw *Firewall) BlockAddr(a packet.Addr, ttl time.Duration) {
	fw.addrs[a] = fw.sched.Now().Add(ttl)
	fw.bumpRev()
}

// BlockPrefix drops traffic from a whole prefix for ttl — the aggregated
// rule spoofed-source floods require (blocking millions of forged
// addresses individually is not a real-world option).
func (fw *Firewall) BlockPrefix(p packet.Prefix, ttl time.Duration) {
	exp := fw.sched.Now().Add(ttl)
	for i := range fw.prefixes {
		pr := &fw.prefixes[i]
		if pr.prefix == p {
			pr.expiry = exp
			fw.bumpRev()
			return
		}
		if pr.prefix.Addr.Uint32() > p.Addr.Uint32() ||
			(pr.prefix.Addr == p.Addr && pr.prefix.Bits > p.Bits) {
			fw.prefixes = append(fw.prefixes, prefixRule{})
			copy(fw.prefixes[i+1:], fw.prefixes[i:])
			fw.prefixes[i] = prefixRule{prefix: p, expiry: exp}
			fw.bumpRev()
			return
		}
	}
	fw.prefixes = append(fw.prefixes, prefixRule{prefix: p, expiry: exp})
	fw.bumpRev()
}

// InstallFlowVerdicts installs one verdict for every given 5-tuple under a
// single rule revision and pre-warms the verdict cache with them — the
// Responder's direct population path. keep is the rate-limit pass modulus
// (ignored unless v is VerdictRateLimit).
func (fw *Firewall) InstallFlowVerdicts(flows []trace.Flow, v Verdict, keep uint32, ttl time.Duration) {
	if len(flows) == 0 {
		return
	}
	now := fw.sched.Now()
	exp := now.Add(ttl)
	for _, f := range flows {
		fw.flows[keyOfFlow(f)] = flowRule{verdict: v, keep: keep, expiry: exp}
	}
	fw.bumpRev()
	for _, f := range flows {
		e := fw.cache.insert(keyOfFlow(f), v, keep, fw.rev, now, fw.capExpiry(exp, now))
		setRule(e, ruleFlow)
	}
}

// keyOfFlow packs a trace.Flow into the cache key form.
func keyOfFlow(f trace.Flow) flowKey {
	return flowKey{
		src:   f.Src,
		dst:   f.Dst,
		ports: uint32(f.SrcPort)<<16 | uint32(f.DstPort),
		proto: f.Proto,
	}
}

// flowOfKey is keyOfFlow's inverse, for classification and tracing.
func flowOfKey(k flowKey) trace.Flow {
	return trace.Flow{
		Src:     k.src,
		Dst:     k.dst,
		SrcPort: uint16(k.ports >> 16),
		DstPort: uint16(k.ports),
		Proto:   k.proto,
	}
}

// capExpiry bounds a cached verdict's lifetime by flowTTL so the cache
// ages even under long-lived rules.
func (fw *Firewall) capExpiry(ruleExp, now sim.Time) sim.Time {
	bound := now.Add(flowTTL)
	if ruleExp < bound {
		return ruleExp
	}
	return bound
}

// BlockedAddrs reports currently active single-address rules.
func (fw *Firewall) BlockedAddrs() int {
	n := 0
	now := fw.sched.Now()
	for _, exp := range fw.addrs {
		if exp > now {
			n++
		}
	}
	return n
}

// BlockedPrefixes reports currently active prefix rules.
func (fw *Firewall) BlockedPrefixes() int {
	n := 0
	now := fw.sched.Now()
	for _, pr := range fw.prefixes {
		if pr.expiry > now {
			n++
		}
	}
	return n
}

// BlockedFlows reports currently active per-flow verdicts.
func (fw *Firewall) BlockedFlows() int {
	n := 0
	now := fw.sched.Now()
	for _, fr := range fw.flows {
		if fr.expiry > now {
			n++
		}
	}
	return n
}

// Stats reports frames evaluated and dropped — a thin adapter over the
// shared telemetry counters the registry exports.
func (fw *Firewall) Stats() (evaluated, dropped uint64) {
	return fw.evaluated.Value(), fw.dropped.Value()
}

// CollateralDrops reports benign frames wrongly dropped (0 without a
// classifier).
func (fw *Firewall) CollateralDrops() uint64 { return fw.collateralDrops.Value() }

// AttackDrops reports attack-classified frames dropped.
func (fw *Firewall) AttackDrops() uint64 { return fw.attackDrops.Value() }

// AttackPassed reports attack-classified frames the firewall admitted —
// the residual attack throughput's numerator.
func (fw *Firewall) AttackPassed() uint64 { return fw.attackPassed.Value() }

// RateLimited reports frames dropped by rate-limit verdicts (a subset of
// Stats' dropped count).
func (fw *Firewall) RateLimited() uint64 { return fw.rateLimited.Value() }

// RuleHits reports cumulative drops attributed to each rule kind.
func (fw *Firewall) RuleHits() (addr, prefix, flow uint64) {
	return fw.ruleHitsAddr.Value(), fw.ruleHitsPrefix.Value(), fw.ruleHitsFlow.Value()
}

// CacheStats snapshots the verdict cache.
func (fw *Firewall) CacheStats() CacheStats {
	return CacheStats{
		Size:      fw.cache.size(fw.sched.Now(), fw.rev),
		Capacity:  len(fw.cache.entries),
		Hits:      fw.cache.hits.Value(),
		Misses:    fw.cache.misses.Value(),
		Inserts:   fw.cache.inserts.Value(),
		Evictions: fw.cache.evictions.Value(),
		Expired:   fw.cache.expirations.Value(),
	}
}

// FirstMitigatedDrop reports when the firewall first dropped an
// attack-classified frame (any frame without a classifier) — the
// time-to-mitigate end anchor — and whether that has happened.
func (fw *Firewall) FirstMitigatedDrop() (sim.Time, bool) {
	return fw.firstMitigated, fw.haveFirstMitigated
}

// Name reports the firewall's telemetry label.
func (fw *Firewall) Name() string { return fw.cfg.Name }

// setRule stores the rule-kind attribution in a cache entry; split out so
// InstallFlowVerdicts and the miss path stay in sync.
func setRule(e *entry, kind uint8) { e.rule = kind }

// admit is the ingress hot path: parse the 5-tuple at fixed offsets,
// consult the verdict cache, fall back to the rule tables on a miss and
// memoize the result. Allocation-free in both outcomes (pinned by
// TestMitigationIngressAllocFree). Non-IP frames (ARP) always pass, as a
// network-layer ACL would let them.
func (fw *Firewall) admit(raw []byte, tc trace.Context) bool {
	fw.evaluated.Inc()
	eth, rest, err := packet.UnmarshalEthernet(raw)
	if err != nil || eth.Type != packet.EtherTypeIPv4 || len(rest) < packet.IPv4HeaderLen {
		return true
	}
	// Fast path: source, destination and protocol sit at fixed offsets;
	// ports follow the (variable) header, read only for TCP/UDP.
	k := flowKey{
		src:   uint32(rest[12])<<24 | uint32(rest[13])<<16 | uint32(rest[14])<<8 | uint32(rest[15]),
		dst:   uint32(rest[16])<<24 | uint32(rest[17])<<16 | uint32(rest[18])<<8 | uint32(rest[19]),
		proto: rest[9],
	}
	if k.proto == packet.ProtoTCP || k.proto == packet.ProtoUDP {
		ihl := int(rest[0]&0x0f) * 4
		if len(rest) >= ihl+4 {
			k.ports = uint32(rest[ihl])<<24 | uint32(rest[ihl+1])<<16 |
				uint32(rest[ihl+2])<<8 | uint32(rest[ihl+3])
		}
	}
	now := fw.sched.Now()
	e := fw.cache.lookup(k, now, fw.rev)
	if e == nil {
		v, keep, kind, exp := fw.evalRules(k, now)
		e = fw.cache.insert(k, v, keep, fw.rev, now, exp)
		setRule(e, kind)
	}
	switch e.verdict {
	case VerdictDrop:
		fw.recordDrop(e, k, now, tc, false)
		return false
	case VerdictRateLimit:
		e.count++
		if e.keep > 1 && e.count%e.keep == 1 {
			break // pass one frame in every keep
		}
		fw.recordDrop(e, k, now, tc, true)
		return false
	}
	if fw.cfg.Classify != nil && fw.cfg.Classify(flowOfKey(k)) == trace.KindAttack {
		fw.attackPassed.Inc()
	}
	return true
}

// evalRules is the cache-miss slow path: flow verdicts first (most
// specific), then address rules, then the sorted prefix rules. Expired
// rules encountered on the way are removed. Returns the verdict, the
// rate-limit modulus, the attributing rule kind and the cached entry's
// expiry.
func (fw *Firewall) evalRules(k flowKey, now sim.Time) (Verdict, uint32, uint8, sim.Time) {
	if fr, ok := fw.flows[k]; ok {
		if fr.expiry > now {
			return fr.verdict, fr.keep, ruleFlow, fw.capExpiry(fr.expiry, now)
		}
		delete(fw.flows, k)
	}
	var src packet.Addr
	src[0], src[1], src[2], src[3] = byte(k.src>>24), byte(k.src>>16), byte(k.src>>8), byte(k.src)
	if exp, ok := fw.addrs[src]; ok {
		if exp > now {
			return VerdictDrop, 0, ruleAddr, fw.capExpiry(exp, now)
		}
		delete(fw.addrs, src)
	}
	for i := 0; i < len(fw.prefixes); {
		pr := fw.prefixes[i]
		if pr.expiry <= now {
			copy(fw.prefixes[i:], fw.prefixes[i+1:])
			fw.prefixes = fw.prefixes[:len(fw.prefixes)-1]
			continue
		}
		if pr.prefix.Contains(src) {
			return VerdictDrop, 0, rulePrefix, fw.capExpiry(pr.expiry, now)
		}
		i++
	}
	return VerdictAllow, 0, ruleNone, now.Add(flowTTL)
}

// recordDrop books one dropped frame: total and rate-limit counters,
// per-rule attribution, collateral vs attack classification, the
// time-to-mitigate anchor, and — for sampled flows — the "mitigation" hop
// span terminating the causal chain with DropMitigated.
func (fw *Firewall) recordDrop(e *entry, k flowKey, now sim.Time, tc trace.Context, limited bool) {
	fw.dropped.Inc()
	if limited {
		fw.rateLimited.Inc()
	}
	switch e.rule {
	case ruleAddr:
		fw.ruleHitsAddr.Inc()
	case rulePrefix:
		fw.ruleHitsPrefix.Inc()
	case ruleFlow:
		fw.ruleHitsFlow.Inc()
	}
	if fw.cfg.Classify != nil {
		if fw.cfg.Classify(flowOfKey(k)) == trace.KindBenign {
			fw.collateralDrops.Inc()
		} else {
			fw.attackDrops.Inc()
			if !fw.haveFirstMitigated {
				fw.haveFirstMitigated = true
				fw.firstMitigated = now
			}
		}
	} else if !fw.haveFirstMitigated {
		fw.haveFirstMitigated = true
		fw.firstMitigated = now
	}
	if tc.Sampled() {
		tc.Start(now, "mitigation", fw.cfg.Name).Drop(now, trace.DropMitigated)
	}
}

// One alert window installs at most maxAddrRules single-address rules and
// maxFlowRules per-flow drop verdicts.
const (
	maxAddrRules = 64
	maxFlowRules = 256
)

// ResponderConfig tunes the IDS-driven response policy.
type ResponderConfig struct {
	// BlockTTL is how long rules last (default 30 s).
	BlockTTL time.Duration
	// AggregateThreshold collapses per-address rules into a /24 block when
	// at least this many flagged sources share the /24 (default 8) — the
	// defense against spoofed-source floods.
	AggregateThreshold int
	// ReactionDelay models the control-plane lag between an IDS alert and
	// the rules actually landing at the firewall (default 0: same-instant
	// install). The delayed install runs on the firewall's scheduler, so
	// it is deterministic under any Domains setting.
	ReactionDelay time.Duration
	// Protected lists addresses never to block (the infrastructure).
	Protected []packet.Addr
	// Registry, when set, exports the responder's counters under
	// mitigation_responder_* metric names.
	Registry *telemetry.Registry
	// Name labels this responder's telemetry (default "responder").
	Name string
}

func (c ResponderConfig) withDefaults() ResponderConfig {
	if c.BlockTTL <= 0 {
		c.BlockTTL = 30 * time.Second
	}
	if c.AggregateThreshold <= 0 {
		c.AggregateThreshold = 8
	}
	if c.Name == "" {
		c.Name = "responder"
	}
	return c
}

// Responder converts IDS window verdicts into firewall rules. Wire it via
// ids.Config.OnWindow or ids.Unit.AddWindowHook.
type Responder struct {
	cfg ResponderConfig
	fw  *Firewall

	alertsHandled telemetry.Counter
	addrRules     telemetry.Counter
	prefixRules   telemetry.Counter
	flowRules     telemetry.Counter
}

// NewResponder returns a responder driving fw.
func NewResponder(fw *Firewall, cfg ResponderConfig) *Responder {
	r := &Responder{cfg: cfg.withDefaults(), fw: fw}
	l := telemetry.L("responder", r.cfg.Name)
	reg := r.cfg.Registry
	reg.RegisterCounter(&r.alertsHandled, "mitigation_responder_alerts_total", l)
	reg.RegisterCounter(&r.addrRules, "mitigation_responder_rules_total", l, telemetry.L("rule", "addr"))
	reg.RegisterCounter(&r.prefixRules, "mitigation_responder_rules_total", l, telemetry.L("rule", "prefix"))
	reg.RegisterCounter(&r.flowRules, "mitigation_responder_rules_total", l, telemetry.L("rule", "flow"))
	return r
}

// Stats reports alerts acted on and rules installed — thin adapters over
// the shared telemetry counters.
func (r *Responder) Stats() (alerts, addrRules, prefixRules uint64) {
	return r.alertsHandled.Value(), r.addrRules.Value(), r.prefixRules.Value()
}

// FlowRules reports per-flow verdicts installed.
func (r *Responder) FlowRules() uint64 { return r.flowRules.Value() }

// HandleWindow implements the ids window-hook contract: on an alert window
// it blocks the flagged sources (aggregating dense /24s into prefix
// rules) and installs per-flow verdicts for the flagged 5-tuples, after
// the configured reaction delay.
func (r *Responder) HandleWindow(w *ids.WindowResult) {
	if !w.Alert || (len(w.FlaggedSrcs) == 0 && len(w.FlaggedFlows) == 0) {
		return
	}
	r.alertsHandled.Inc()
	if r.cfg.ReactionDelay <= 0 {
		r.install(w.FlaggedSrcs, w.FlaggedFlows)
		return
	}
	// The WindowResult's slices are owned by the unit's results log and
	// never mutated after the hook, so the deferred install may reference
	// them directly.
	srcs, flows := w.FlaggedSrcs, w.FlaggedFlows
	r.fw.sched.After(r.cfg.ReactionDelay, func() {
		r.install(srcs, flows)
	})
}

// install materializes one alert window's rules. Sources are processed in
// flagged (first-seen) order with aggregation counts computed up front, so
// the installed rule sequence is deterministic — never a map iteration.
func (r *Responder) install(srcs []packet.Addr, flows []trace.Flow) {
	per24 := make(map[packet.Addr]int, len(srcs))
	for _, src := range srcs {
		if r.protected(src) {
			continue
		}
		per24[base24(src)]++
	}
	blocked := make(map[packet.Addr]bool)
	installed := 0
	for _, src := range srcs {
		if r.protected(src) {
			continue
		}
		base := base24(src)
		if per24[base] >= r.cfg.AggregateThreshold {
			if !blocked[base] {
				blocked[base] = true
				r.fw.BlockPrefix(packet.Prefix{Addr: base, Bits: 24}, r.cfg.BlockTTL)
				r.prefixRules.Inc()
			}
			continue
		}
		if installed >= maxAddrRules {
			continue
		}
		r.fw.BlockAddr(src, r.cfg.BlockTTL)
		r.addrRules.Inc()
		installed++
	}
	if len(flows) == 0 {
		return
	}
	batch := make([]trace.Flow, 0, min(len(flows), maxFlowRules))
	for _, f := range flows {
		if len(batch) >= maxFlowRules {
			break
		}
		if r.protected(packet.AddrFromUint32(f.Src)) {
			continue
		}
		batch = append(batch, f)
	}
	r.fw.InstallFlowVerdicts(batch, VerdictDrop, 0, r.cfg.BlockTTL)
	r.flowRules.Add(uint64(len(batch)))
}

// base24 is the /24 base of an address.
func base24(a packet.Addr) packet.Addr {
	return packet.AddrFrom4(a[0], a[1], a[2], 0)
}

func (r *Responder) protected(a packet.Addr) bool {
	for _, p := range r.cfg.Protected {
		if p == a {
			return true
		}
	}
	return false
}
