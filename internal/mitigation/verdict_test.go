package mitigation

import (
	"testing"
	"time"
	"unsafe"

	"ddoshield/internal/ids"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// testHist returns a standalone age histogram (a nil registry hands out
// functional unregistered instances).
func testHist() *telemetry.Histogram {
	return (*telemetry.Registry)(nil).NewHistogram("age", cacheAgeBounds)
}

func TestVerdictCacheHitExpireAndRevInvalidation(t *testing.T) {
	vc := newVerdictCache(64, testHist())
	k := flowKey{src: 1, dst: 2, ports: 3, proto: packet.ProtoUDP}
	vc.insert(k, VerdictDrop, ruleAddr, 1, 0, 100*sim.Millisecond)
	e := vc.lookup(k, 50*sim.Millisecond, 1)
	if e == nil || e.verdict != VerdictDrop {
		t.Fatal("live entry missed")
	}
	if vc.hits.Value() != 1 {
		t.Fatalf("hits = %d", vc.hits.Value())
	}
	// A rule change bumps the revision: the memoized verdict must die even
	// though its expiry is still in the future.
	if e := vc.lookup(k, 60*sim.Millisecond, 2); e != nil {
		t.Fatal("stale-revision entry returned")
	}
	if vc.expirations.Value() != 1 {
		t.Fatalf("expirations after rev bump = %d", vc.expirations.Value())
	}
	// Reinsert under the new revision, then age it out by time.
	vc.insert(k, VerdictAllow, ruleNone, 2, 60*sim.Millisecond, 200*sim.Millisecond)
	if e := vc.lookup(k, 200*sim.Millisecond, 2); e != nil {
		t.Fatal("expired entry returned")
	}
	if vc.expirations.Value() != 2 {
		t.Fatalf("expirations after TTL = %d", vc.expirations.Value())
	}
}

func TestVerdictCacheEvictsEarliestExpiring(t *testing.T) {
	// A probeWindow-sized table: every probe covers the whole table, so
	// eight distinct keys fill it completely.
	vc := newVerdictCache(probeWindow, testHist())
	for i := 0; i < probeWindow; i++ {
		vc.insert(flowKey{src: uint32(i + 1)}, VerdictAllow, ruleNone, 1, 0, sim.Time(i+1)*sim.Second)
	}
	if vc.evictions.Value() != 0 {
		t.Fatalf("evictions while table had room = %d", vc.evictions.Value())
	}
	// The ninth insert must deterministically evict the earliest-expiring
	// entry (src=1, expiry 1 s), never an arbitrary one.
	vc.insert(flowKey{src: 99}, VerdictDrop, ruleAddr, 1, 0, 10*sim.Second)
	if vc.evictions.Value() != 1 {
		t.Fatalf("evictions = %d", vc.evictions.Value())
	}
	if e := vc.lookup(flowKey{src: 1}, 0, 1); e != nil {
		t.Fatal("earliest-expiring entry survived the eviction")
	}
	if e := vc.lookup(flowKey{src: 99}, 0, 1); e == nil || e.verdict != VerdictDrop {
		t.Fatal("newly inserted entry missing")
	}
}

func TestVerdictCacheSweepAndSize(t *testing.T) {
	vc := newVerdictCache(64, testHist())
	vc.insert(flowKey{src: 1}, VerdictDrop, ruleAddr, 1, 0, sim.Second)
	vc.insert(flowKey{src: 2}, VerdictDrop, ruleAddr, 1, 0, 3*sim.Second)
	if n := vc.size(0, 1); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}
	vc.sweep(2*sim.Second, 1)
	if vc.expirations.Value() != 1 {
		t.Fatalf("sweep expired %d entries, want 1", vc.expirations.Value())
	}
	if n := vc.size(2*sim.Second, 1); n != 1 {
		t.Fatalf("size after sweep = %d, want 1", n)
	}
	// A revision bump makes the survivor stale too.
	vc.sweep(2*sim.Second, 2)
	if n := vc.size(2*sim.Second, 2); n != 0 {
		t.Fatalf("size after rev sweep = %d, want 0", n)
	}
}

// TestCacheEntrySize pins the verdict-cache slot at 40 bytes on 64-bit
// platforms: five slots to a pair of cache lines.
func TestCacheEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot size is pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(entry{}); n != 40 {
		t.Fatalf("entry is %d bytes, want 40", n)
	}
}

// TestStatsMatchRegistryCounters pins the shared-counter contract: every
// mitigation_* series the registry exports is the Report() field read from
// the same telemetry instance, so the two views can never drift. The run
// drops by an address rule and by a flow rule, and classifies one flow as
// attack and the other as benign, so no compared count is zero by
// construction.
func TestStatsMatchRegistryCounters(t *testing.T) {
	s, client, server := pair(t)
	reg := telemetry.NewRegistry()
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{
		Registry: reg,
		Name:     "fw0",
		Classify: func(f trace.Flow) trace.Kind {
			if f.SrcPort == 5000 {
				return trace.KindAttack
			}
			return trace.KindBenign
		},
	})
	resp := NewResponder(fw, ResponderConfig{Registry: reg, Name: "r0"})
	if _, err := server.ListenUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	attack, err := client.ListenUDP(5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := client.ListenUDP(6000, nil)
	if err != nil {
		t.Fatal(err)
	}
	attack.SendTo(server.Addr(), 9, []byte("1"))
	s.RunFor(time.Second)
	resp.HandleWindow(&ids.WindowResult{
		Alert:       true,
		FlaggedSrcs: []packet.Addr{client.Addr()},
		FlaggedFlows: []trace.Flow{{
			Src: client.Addr().Uint32(), Dst: server.Addr().Uint32(),
			SrcPort: 6000, DstPort: 9, Proto: packet.ProtoUDP,
		}},
	})
	for i := 0; i < 5; i++ {
		attack.SendTo(server.Addr(), 9, []byte("2"))
		benign.SendTo(server.Addr(), 9, []byte("3"))
		s.RunFor(100 * time.Millisecond)
	}
	rep := resp.Report()
	if rep.RuleHits.Addr == 0 || rep.RuleHits.Flow == 0 || rep.CollateralDrops == 0 || rep.AttackPassed == 0 {
		t.Fatalf("a compared count is zero, the comparison would be vacuous: %+v", rep)
	}
	fwL, rL := `{fw="fw0"`, `{responder="r0"`
	want := map[string]uint64{
		"mitigation_frames_evaluated_total" + fwL + "}":             rep.Evaluated,
		"mitigation_frames_dropped_total" + fwL + "}":               rep.Dropped,
		"mitigation_collateral_drops_total" + fwL + "}":             rep.CollateralDrops,
		"mitigation_attack_drops_total" + fwL + "}":                 rep.AttackDrops,
		"mitigation_attack_passed_total" + fwL + "}":                rep.AttackPassed,
		"mitigation_rule_hits_total" + fwL + `,rule="addr"}`:        rep.RuleHits.Addr,
		"mitigation_rule_hits_total" + fwL + `,rule="prefix"}`:      rep.RuleHits.Prefix,
		"mitigation_rule_hits_total" + fwL + `,rule="flow"}`:        rep.RuleHits.Flow,
		"mitigation_cache_hits_total" + fwL + "}":                   rep.Cache.Hits,
		"mitigation_cache_misses_total" + fwL + "}":                 rep.Cache.Misses,
		"mitigation_cache_inserts_total" + fwL + "}":                rep.Cache.Inserts,
		"mitigation_cache_evictions_total" + fwL + "}":              rep.Cache.Evictions,
		"mitigation_cache_expired_total" + fwL + "}":                rep.Cache.Expired,
		"mitigation_cache_entries" + fwL + "}":                      uint64(rep.Cache.Size),
		"mitigation_cache_age_us" + fwL + "}":                       rep.Cache.Expired + rep.Cache.Evictions,
		"mitigation_responder_alerts_total" + rL + "}":              rep.Alerts,
		"mitigation_responder_rules_total" + rL + `,rule="addr"}`:   rep.RulesInstalled.Addr,
		"mitigation_responder_rules_total" + rL + `,rule="prefix"}`: rep.RulesInstalled.Prefix,
		"mitigation_responder_rules_total" + rL + `,rule="flow"}`:   rep.RulesInstalled.Flow,
	}
	for _, m := range reg.Snapshot() {
		series := m.Name + m.Labels
		w, ok := want[series]
		if !ok {
			t.Errorf("%s is exported but has no Report field", series)
			continue
		}
		delete(want, series)
		got := m.Value
		if m.Kind == telemetry.KindHistogram {
			got = float64(m.Count) // every retired entry observes its age once
		}
		if got != float64(w) {
			t.Errorf("%s: registry = %v, Report = %d", series, got, w)
		}
	}
	for series := range want {
		t.Errorf("%s is not exported", series)
	}
}

// TestMitigationIngressAllocFree pins the hot-path contract the CI alloc
// guard enforces: admitting a frame allocates nothing, on cache hits and
// on misses that re-evaluate the rule tables alike.
func TestMitigationIngressAllocFree(t *testing.T) {
	s, client, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	fw.BlockAddr(client.Addr(), time.Hour)
	raw := packet.BuildTCP(client.MAC(), server.MAC(),
		packet.IPv4{TTL: 64, Src: client.Addr(), Dst: server.Addr()},
		packet.TCP{SrcPort: 4000, DstPort: 80, Flags: packet.FlagSYN, Window: 512},
		nil)
	var tc trace.Context
	fw.admit(raw, tc) // warm: memoize the drop verdict
	if a := testing.AllocsPerRun(200, func() { fw.admit(raw, tc) }); a != 0 {
		t.Fatalf("cache-hit admit: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		fw.bumpRev() // invalidate: force the miss + rule-evaluation path
		fw.admit(raw, tc)
	}); a != 0 {
		t.Fatalf("cache-miss admit: %v allocs/op, want 0", a)
	}
}

func TestResponderReactionDelay(t *testing.T) {
	s, client, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	resp := NewResponder(fw, ResponderConfig{ReactionDelay: 2 * time.Second})
	resp.HandleWindow(&ids.WindowResult{Alert: true, FlaggedSrcs: []packet.Addr{client.Addr()}})
	if n := resp.Report().ActiveRules.Addr; n != 0 {
		t.Fatal("rules installed before the reaction delay elapsed")
	}
	s.RunFor(time.Second)
	if n := resp.Report().ActiveRules.Addr; n != 0 {
		t.Fatal("rules installed mid-delay")
	}
	s.RunFor(2 * time.Second)
	if n := resp.Report().ActiveRules.Addr; n != 1 {
		t.Fatalf("active address rules after delay = %d, want 1", n)
	}
}

func TestResponderFlowRulesSkipProtected(t *testing.T) {
	s, _, server := pair(t)
	fw := NewFirewallConfig(s, server.NIC(), FirewallConfig{})
	protected := packet.AddrFrom4(10, 0, 9, 9)
	resp := NewResponder(fw, ResponderConfig{Protected: []packet.Addr{protected}})
	resp.HandleWindow(&ids.WindowResult{Alert: true, FlaggedFlows: []trace.Flow{
		{Src: packet.AddrFrom4(10, 0, 200, 1).Uint32(), Dst: server.Addr().Uint32(), SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP},
		{Src: protected.Uint32(), Dst: server.Addr().Uint32(), SrcPort: 1235, DstPort: 80, Proto: packet.ProtoTCP},
	}})
	rep := resp.Report()
	if rep.ActiveRules.Flow != 1 {
		t.Fatalf("active flow rules = %d, want 1 (protected flow filtered)", rep.ActiveRules.Flow)
	}
	if rep.RulesInstalled.Flow != 1 {
		t.Fatalf("flow rules installed = %d, want 1", rep.RulesInstalled.Flow)
	}
}
