package prof

import (
	"encoding/json"
	"io"
	"sort"

	"ddoshield/internal/sim"
)

// Entity kind names used by the virtual-load attribution.
const (
	KindDevice = "device"
	KindSwitch = "switch"
	KindLink   = "link"
	KindIDS    = "ids"
	KindFaults = "faults"
	KindHost   = "host"
)

// Entity is one attributable simulation object and its deterministic event
// count (frames for network entities, packets for IDS units, injections
// for the fault injector). Domain is the entity's domain under the
// reference layout the caller evaluated; -1 marks entities that span
// domains (links, the injector) and are excluded from per-domain load.
type Entity struct {
	Name   string
	Kind   string
	Domain int
	Events uint64
}

// CrossLoad is one (src,dst) domain pair's traffic count: frames in the
// virtual section, merged engine messages in the engine section.
type CrossLoad struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Count uint64 `json:"count"`
}

// KindLoad aggregates the virtual load of one entity kind.
type KindLoad struct {
	Kind     string  `json:"kind"`
	Entities int     `json:"entities"`
	Events   uint64  `json:"events"`
	Share    float64 `json:"share"`
}

// DomainLoad aggregates the virtual load placed on one reference domain.
type DomainLoad struct {
	Domain   int     `json:"domain"`
	Entities int     `json:"entities"`
	Events   uint64  `json:"events"`
	Share    float64 `json:"share"`
}

// EntityLoad is one hot entity in the top-N ranking. XMean is its event
// count over the mean event count across all entities — the "core switch
// executed 6.2x mean events" number.
type EntityLoad struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Domain int     `json:"domain"`
	Events uint64  `json:"events"`
	XMean  float64 `json:"x_mean"`
}

// VirtualProfile is the deterministic plane's attribution document. Every
// value derives from per-entity simulation counters mapped through a
// reference domain layout evaluated at EvalDomains — a pure function of
// the topology, never of the run's actual Domains setting — so the JSON
// encoding is byte-identical across runs, worker counts and Domains
// settings alike.
type VirtualProfile struct {
	// EvalDomains is the reference domain count the attribution was
	// evaluated at (domain 0 = core, 1..EvalDomains-1 = device groups).
	EvalDomains int `json:"eval_domains"`
	// Entities and TotalEvents cover every attributed entity.
	Entities    int    `json:"entities"`
	TotalEvents uint64 `json:"total_events"`
	// Kinds aggregates load by entity kind, sorted by kind name.
	Kinds []KindLoad `json:"kinds"`
	// Domains aggregates domain-attributed load (links and the injector
	// span domains and are excluded), sorted by domain index.
	Domains []DomainLoad `json:"domains"`
	// ImbalanceIndex is max/mean events per domain: 1.0 is a perfectly
	// balanced layout, K is everything-on-one-domain.
	ImbalanceIndex float64 `json:"imbalance_index"`
	// Cross counts frames that traversed a link whose endpoints land in
	// different reference domains, by (src,dst) pair, sorted by (from,to).
	Cross []CrossLoad `json:"cross_domain_frames,omitempty"`
	// TopEntities ranks the hottest entities (events desc, name asc).
	TopEntities []EntityLoad `json:"top_entities,omitempty"`
}

// BuildVirtual assembles the deterministic attribution from raw entities
// and the cross-domain frame matrix. Determinism: aggregation uses sorted
// orders only (kind name, domain index, (events desc, name asc)), so equal
// inputs yield byte-equal JSON.
func BuildVirtual(evalDomains int, entities []Entity, cross []CrossLoad, topN int) *VirtualProfile {
	if evalDomains < 1 {
		evalDomains = 1
	}
	vp := &VirtualProfile{EvalDomains: evalDomains, Entities: len(entities)}
	kinds := make(map[string]*KindLoad)
	domEvents := make([]uint64, evalDomains)
	domEntities := make([]int, evalDomains)
	var domTotal uint64
	for _, e := range entities {
		vp.TotalEvents += e.Events
		k := kinds[e.Kind]
		if k == nil {
			k = &KindLoad{Kind: e.Kind}
			kinds[e.Kind] = k
		}
		k.Entities++
		k.Events += e.Events
		if e.Domain >= 0 && e.Domain < evalDomains {
			domEvents[e.Domain] += e.Events
			domEntities[e.Domain]++
			domTotal += e.Events
		}
	}
	for _, k := range kinds {
		if vp.TotalEvents > 0 {
			k.Share = float64(k.Events) / float64(vp.TotalEvents)
		}
		vp.Kinds = append(vp.Kinds, *k)
	}
	sort.Slice(vp.Kinds, func(i, j int) bool { return vp.Kinds[i].Kind < vp.Kinds[j].Kind })
	var maxDom uint64
	for d := 0; d < evalDomains; d++ {
		dl := DomainLoad{Domain: d, Entities: domEntities[d], Events: domEvents[d]}
		if domTotal > 0 {
			dl.Share = float64(dl.Events) / float64(domTotal)
		}
		if dl.Events > maxDom {
			maxDom = dl.Events
		}
		vp.Domains = append(vp.Domains, dl)
	}
	if domTotal > 0 {
		mean := float64(domTotal) / float64(evalDomains)
		vp.ImbalanceIndex = float64(maxDom) / mean
	}
	vp.Cross = append(vp.Cross, cross...)
	sort.Slice(vp.Cross, func(i, j int) bool {
		if vp.Cross[i].From != vp.Cross[j].From {
			return vp.Cross[i].From < vp.Cross[j].From
		}
		return vp.Cross[i].To < vp.Cross[j].To
	})
	if topN > 0 && len(entities) > 0 {
		ranked := make([]Entity, len(entities))
		copy(ranked, entities)
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].Events != ranked[j].Events {
				return ranked[i].Events > ranked[j].Events
			}
			return ranked[i].Name < ranked[j].Name
		})
		if topN > len(ranked) {
			topN = len(ranked)
		}
		mean := float64(vp.TotalEvents) / float64(len(entities))
		for _, e := range ranked[:topN] {
			el := EntityLoad{Name: e.Name, Kind: e.Kind, Domain: e.Domain, Events: e.Events}
			if mean > 0 {
				el.XMean = float64(e.Events) / mean
			}
			vp.TopEntities = append(vp.TopEntities, el)
		}
	}
	return vp
}

// WindowStats summarizes epoch window widths in virtual nanoseconds.
type WindowStats struct {
	MinNs  int64   `json:"min_ns"`
	MaxNs  int64   `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// DomainEngine is one domain's engine-plane accounting. Deterministic for
// a fixed (seed, Domains) configuration and independent of the worker
// count; unlike the virtual section it legitimately varies with Domains
// (the partitioning itself is what it measures).
type DomainEngine struct {
	Domain int    `json:"domain"`
	Events uint64 `json:"events"`
	// MaxWindowEvents is the largest single-window event count.
	MaxWindowEvents uint64 `json:"max_window_events,omitempty"`
	MsgsOut         uint64 `json:"msgs_out"`
	MsgsIn          uint64 `json:"msgs_in"`
	MaxHorizonLagNs int64  `json:"max_horizon_lag_ns"`
}

// EngineProfile is the engine plane: epoch counts, window-width stats,
// per-domain event totals and the merged cross-domain message matrix.
type EngineProfile struct {
	Domains     int            `json:"domains"`
	LookaheadNs int64          `json:"lookahead_ns"`
	Epochs      uint64         `json:"epochs"`
	Window      *WindowStats   `json:"window,omitempty"`
	PerDomain   []DomainEngine `json:"per_domain"`
	Cross       []CrossLoad    `json:"cross_domain_msgs,omitempty"`
}

// BuildEngine assembles the engine section from the engine's own
// deterministic counters.
func BuildEngine(e *sim.Engine) *EngineProfile {
	k := e.NumDomains()
	ep := &EngineProfile{
		Domains:     k,
		LookaheadNs: int64(e.Lookahead()),
		Epochs:      e.Epochs(),
	}
	for i := 0; i < k; i++ {
		st := e.Domain(i).Stats()
		ep.PerDomain = append(ep.PerDomain, DomainEngine{
			Domain:          i,
			Events:          st.Events,
			MaxWindowEvents: st.MaxWindowEvents,
			MsgsOut:         st.MsgsOut,
			MsgsIn:          st.MsgsIn,
			MaxHorizonLagNs: int64(st.HorizonLag),
		})
	}
	if ep.Epochs > 0 {
		w := e.Windows()
		ep.Window = &WindowStats{MinNs: int64(w.Min), MaxNs: int64(w.Max), MeanNs: w.Mean}
	}
	for from := 0; from < k; from++ {
		for to := 0; to < k; to++ {
			if n := e.Messages(from, to); n > 0 {
				ep.Cross = append(ep.Cross, CrossLoad{From: from, To: to, Count: n})
			}
		}
	}
	return ep
}

// PhaseWall is one campaign phase's wall clock.
type PhaseWall struct {
	Phase string  `json:"phase"`
	MS    float64 `json:"ms"`
}

// DomainWall is one domain's wall-clock epoch-phase split. WaitShare is
// wait/(exec+wait): the fraction of the domain's epoch wall clock between
// the end of its window and the barrier — the straggler indicator. Domains
// share the engine's workers, so a domain's wait is not a core's idle
// time: the worker that ran its window may have spent it running later
// windows of the same epoch (sim.DomainWall).
type DomainWall struct {
	Domain    int     `json:"domain"`
	ExecMS    float64 `json:"exec_ms"`
	WaitMS    float64 `json:"wait_ms"`
	WaitShare float64 `json:"wait_share"`
}

// WallProfile is the wall-clock plane. By contract it never enters
// deterministic artifacts; consumers compare it across hosts at their own
// risk.
type WallProfile struct {
	Phases []PhaseWall `json:"phases"`
	// BuildDevicesPerSecond is fleet size over build+start wall time — the
	// headline construction-throughput figure the scale bench tracks.
	// Omitted when the fleet size is unknown or no build was timed.
	BuildDevicesPerSecond float64      `json:"build_devices_per_second,omitempty"`
	MergeMS               float64      `json:"merge_ms,omitempty"`
	PerDomain             []DomainWall `json:"per_domain,omitempty"`
}

// WallProfile snapshots the wall-clock plane: the phase timers and, under
// the PDES engine, one row per domain.
func (p *Profiler) WallProfile() *WallProfile {
	wp := &WallProfile{}
	if buildNs := p.phaseNs[PhaseBuild] + p.phaseNs[PhaseStart]; buildNs > 0 && p.devices > 0 {
		wp.BuildDevicesPerSecond = float64(p.devices) / (float64(buildNs) / 1e9)
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		wp.Phases = append(wp.Phases, PhaseWall{Phase: ph.String(), MS: float64(p.phaseNs[ph]) / 1e6})
	}
	if e := p.engine; e != nil {
		wp.MergeMS = float64(e.MergeNs()) / 1e6
		for d := 0; d < e.NumDomains(); d++ {
			w := e.Domain(d).Wall()
			dw := DomainWall{Domain: d, ExecMS: float64(w.ExecNs) / 1e6, WaitMS: float64(w.WaitNs) / 1e6}
			if total := w.ExecNs + w.WaitNs; total > 0 {
				dw.WaitShare = float64(w.WaitNs) / float64(total)
			}
			wp.PerDomain = append(wp.PerDomain, dw)
		}
	}
	return wp
}

// Profile is the combined document: the deterministic virtual plane, the
// engine plane, and the wall-clock plane. Sections are independent — a
// serial run has no Engine section and no per-domain wall rows.
type Profile struct {
	Virtual *VirtualProfile `json:"virtual,omitempty"`
	Engine  *EngineProfile  `json:"engine,omitempty"`
	Wall    *WallProfile    `json:"wall,omitempty"`
}

// JSON renders the profile as indented JSON with a trailing newline.
func (p *Profile) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteJSON writes the indented JSON document to w.
func (p *Profile) WriteJSON(w io.Writer) error {
	data, err := p.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
