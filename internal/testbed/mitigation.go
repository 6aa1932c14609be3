package testbed

import (
	"encoding/json"
	"time"

	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/packet"
	"ddoshield/internal/telemetry"
)

// MitigationConfig tunes the testbed's closed-loop defense: the inline
// verdict-cache firewall at the TServer ingress plus the responder that
// feeds it from one IDS unit's window verdicts. The zero value is usable.
type MitigationConfig struct {
	// Responder is the response policy (TTLs, aggregation, reaction
	// delay). Protected always additionally includes the testbed's own
	// infrastructure addresses.
	Responder mitigation.ResponderConfig
	// CacheSize is the verdict-cache capacity (default 1024).
	CacheSize int
}

// mitigationHandle ties one IDS unit to its firewall and responder for
// Summary and scoreboard rendering.
type mitigationHandle struct {
	unit *ids.Unit
	fw   *mitigation.Firewall
	resp *mitigation.Responder
}

// AttachMitigation closes the detection loop for one attached IDS unit:
// it installs an inline verdict-cache firewall on the TServer's NIC (on
// the TServer's own domain scheduler, so aging and rule installs stay
// deterministic under any Domains setting), wires a responder to the
// unit's window verdicts, and registers
// mitigation_time_to_mitigate_seconds{unit=...} — the gap between the
// C2's first attack order and the first mitigated attack drop, the
// defense-side sibling of ids_detection_latency_seconds. The unit also
// gains mitigation lines in Summary and a panel in MitigationScoreboard.
func (tb *Testbed) AttachMitigation(u *ids.Unit, cfg MitigationConfig) *mitigation.Firewall {
	fw := mitigation.NewFirewallConfig(tb.tserver.Scheduler(), tb.tserver.Host().NIC(),
		mitigation.FirewallConfig{
			CacheSize: cfg.CacheSize,
			Classify:  classifyFlow,
			Registry:  tb.reg,
			Name:      u.Name(),
		})
	rcfg := cfg.Responder
	rcfg.Protected = append(tb.protectedAddrs(), rcfg.Protected...)
	rcfg.Registry = tb.reg
	if rcfg.Name == "" {
		rcfg.Name = u.Name()
	}
	resp := mitigation.NewResponder(fw, rcfg)
	u.AddWindowHook(resp.HandleWindow)
	tb.mitigations = append(tb.mitigations, mitigationHandle{unit: u, fw: fw, resp: resp})
	tb.reg.RegisterGaugeFunc(func() float64 {
		d, ok := tb.TimeToMitigate(fw)
		if !ok {
			return -1
		}
		return d.Seconds()
	}, "mitigation_time_to_mitigate_seconds", telemetry.L("unit", u.Name()))
	return fw
}

// protectedAddrs lists the infrastructure a responder must never block:
// the TServer itself, the IDS tap and the edge servers. (Backscatter from
// a UDP flood carries the TServer as source, so an unprotected responder
// would blackhole its own protected service.)
func (tb *Testbed) protectedAddrs() []packet.Addr {
	out := []packet.Addr{addrTServer, addrIDS}
	for g := range tb.edgeCs {
		out = append(out, edgeServerAddr(g))
	}
	return out
}

// TimeToMitigate reports the closed-loop reaction latency for one attached
// firewall: the C2's first attack order → the firewall's first drop of an
// attack-classified frame. False until both anchors exist.
func (tb *Testbed) TimeToMitigate(fw *mitigation.Firewall) (time.Duration, bool) {
	start, ok := tb.firstAttackAt()
	if !ok {
		return 0, false
	}
	hit, ok := fw.FirstMitigatedDrop()
	if !ok || hit < start {
		return 0, false
	}
	return (hit - start).Duration(), true
}

// MitigationScoreboard is the live defense dashboard served at
// /mitigation.json: per-unit reaction latency, drop/collateral accounting,
// rule activity and verdict-cache state. All values derive from simulated
// time and deterministic counters, so two same-seed runs publish
// byte-identical boards at the same simulated instant.
type MitigationScoreboard struct {
	NowS  float64               `json:"now_s"`
	Units []MitigationUnitBoard `json:"units"`
}

// MitigationUnitBoard is one IDS unit's defense panel: its reaction
// latencies and its loop's mitigation.Report.
type MitigationUnitBoard struct {
	Unit string `json:"unit"`
	// DetectionLatencyS and TimeToMitigateS are -1 until their anchors
	// exist (mirroring the registry gauges).
	DetectionLatencyS float64 `json:"detection_latency_s"`
	TimeToMitigateS   float64 `json:"time_to_mitigate_s"`
	mitigation.Report
}

// MitigationScoreboard snapshots the defense state of every attached
// mitigation loop (empty Units when none is attached).
func (tb *Testbed) MitigationScoreboard() *MitigationScoreboard {
	sb := &MitigationScoreboard{NowS: tb.sched.Now().Duration().Seconds()}
	for _, m := range tb.mitigations {
		b := MitigationUnitBoard{
			Unit:              m.unit.Name(),
			DetectionLatencyS: -1,
			TimeToMitigateS:   -1,
			Report:            m.resp.Report(),
		}
		if d, ok := tb.DetectionLatency(m.unit); ok {
			b.DetectionLatencyS = d.Seconds()
		}
		if d, ok := tb.TimeToMitigate(m.fw); ok {
			b.TimeToMitigateS = d.Seconds()
		}
		sb.Units = append(sb.Units, b)
	}
	return sb
}

// JSON renders the scoreboard as indented, key-order-stable JSON.
func (s *MitigationScoreboard) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
