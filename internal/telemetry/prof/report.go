package prof

import (
	"fmt"
	"strings"

	"ddoshield/internal/report"
)

// Report is the straggler/bottleneck digest of a Profile: a per-domain
// table plus plain-language findings ("domain 3 spent 41% of wall clock
// waiting", "switch lan0 executed 6.2x mean entity events"). Findings mix
// deterministic attribution with wall-clock phase data, so the report —
// like the Wall section it reads — is not a deterministic artifact.
type Report struct {
	// Findings are ranked observations, most load-bearing first.
	Findings []string `json:"findings"`

	profile *Profile
}

// BuildReport digests a profile. Sections that are absent (serial runs
// have no engine plane) simply contribute no rows or findings.
func BuildReport(p *Profile) *Report {
	r := &Report{profile: p}
	if p == nil {
		return r
	}
	r.addEntityFindings()
	r.addWallFindings()
	r.addImbalanceFinding()
	r.addCrossFinding()
	r.addPhaseFinding()
	return r
}

// addEntityFindings names the hottest entity — at fleet scale this is the
// core switch every trunk crossing serializes through.
func (r *Report) addEntityFindings() {
	v := r.profile.Virtual
	if v == nil || len(v.TopEntities) == 0 {
		return
	}
	top := v.TopEntities[0]
	f := fmt.Sprintf("%s %s executed %.1fx the mean entity event count (%d events",
		top.Kind, top.Name, top.XMean, top.Events)
	if top.Domain >= 0 {
		f += fmt.Sprintf(", domain %d", top.Domain)
	}
	f += ")"
	if top.Kind == KindSwitch && top.Domain == 0 {
		f += " — the core-domain switch serializes every trunk crossing"
	}
	r.Findings = append(r.Findings, f)
}

// addWallFindings names the worst barrier-waiter and the straggler it
// waited for.
func (r *Report) addWallFindings() {
	w := r.profile.Wall
	if w == nil || len(w.PerDomain) == 0 {
		return
	}
	waiter, straggler := 0, 0
	for i, d := range w.PerDomain {
		if d.WaitShare > w.PerDomain[waiter].WaitShare {
			waiter = i
		}
		if d.ExecMS > w.PerDomain[straggler].ExecMS {
			straggler = i
		}
	}
	wd := w.PerDomain[waiter]
	if wd.WaitShare > 0 {
		r.Findings = append(r.Findings, fmt.Sprintf(
			"domain %d spent %.0f%% of its epoch wall clock waiting at barriers (%.1f ms); straggler: domain %d at %.1f ms execute",
			wd.Domain, wd.WaitShare*100, wd.WaitMS,
			w.PerDomain[straggler].Domain, w.PerDomain[straggler].ExecMS))
	}
}

// addImbalanceFinding reports the virtual max/mean domain load index.
func (r *Report) addImbalanceFinding() {
	v := r.profile.Virtual
	if v == nil || v.ImbalanceIndex == 0 || len(v.Domains) == 0 {
		return
	}
	hot := 0
	for i, d := range v.Domains {
		if d.Events > v.Domains[hot].Events {
			hot = i
		}
	}
	r.Findings = append(r.Findings, fmt.Sprintf(
		"virtual load imbalance (max/mean events per domain) = %.2f across %d domains; hottest: domain %d with %d events",
		v.ImbalanceIndex, v.EvalDomains, v.Domains[hot].Domain, v.Domains[hot].Events))
}

// addCrossFinding names the heaviest cross-domain message pair.
func (r *Report) addCrossFinding() {
	e := r.profile.Engine
	if e == nil || len(e.Cross) == 0 {
		return
	}
	var total uint64
	hot := 0
	for i, c := range e.Cross {
		total += c.Count
		if c.Count > e.Cross[hot].Count {
			hot = i
		}
	}
	h := e.Cross[hot]
	r.Findings = append(r.Findings, fmt.Sprintf(
		"cross-domain traffic concentrates on %d->%d: %d msgs (%.0f%% of %d total) over %d epochs",
		h.From, h.To, h.Count, float64(h.Count)/float64(total)*100, total, e.Epochs))
}

// addPhaseFinding summarizes the campaign phase split.
func (r *Report) addPhaseFinding() {
	w := r.profile.Wall
	if w == nil || len(w.Phases) == 0 {
		return
	}
	var parts []string
	var total float64
	for _, ph := range w.Phases {
		total += ph.MS
		parts = append(parts, fmt.Sprintf("%s %.1f ms", ph.Phase, ph.MS))
	}
	if total == 0 {
		return
	}
	r.Findings = append(r.Findings, "campaign phases: "+strings.Join(parts, ", "))
}

// Table renders the per-domain digest as an aligned text table: virtual
// load, engine counters and wall-clock phase split side by side, with "-"
// where a section is absent.
func (r *Report) Table() string {
	p := r.profile
	if p == nil {
		return ""
	}
	rows := 0
	if p.Virtual != nil && len(p.Virtual.Domains) > rows {
		rows = len(p.Virtual.Domains)
	}
	if p.Engine != nil && len(p.Engine.PerDomain) > rows {
		rows = len(p.Engine.PerDomain)
	}
	if p.Wall != nil && len(p.Wall.PerDomain) > rows {
		rows = len(p.Wall.PerDomain)
	}
	if rows == 0 {
		return ""
	}
	headers := []string{"domain", "virt events", "virt share", "engine events", "msgs in", "msgs out", "exec ms", "wait ms", "wait %"}
	var table [][]string
	for i := 0; i < rows; i++ {
		row := []string{fmt.Sprintf("%d", i), "-", "-", "-", "-", "-", "-", "-", "-"}
		if p.Virtual != nil && i < len(p.Virtual.Domains) {
			d := p.Virtual.Domains[i]
			row[1] = fmt.Sprintf("%d", d.Events)
			row[2] = fmt.Sprintf("%.1f%%", d.Share*100)
		}
		if p.Engine != nil && i < len(p.Engine.PerDomain) {
			d := p.Engine.PerDomain[i]
			row[3] = fmt.Sprintf("%d", d.Events)
			row[4] = fmt.Sprintf("%d", d.MsgsIn)
			row[5] = fmt.Sprintf("%d", d.MsgsOut)
		}
		if p.Wall != nil && i < len(p.Wall.PerDomain) {
			d := p.Wall.PerDomain[i]
			row[6] = fmt.Sprintf("%.1f", d.ExecMS)
			row[7] = fmt.Sprintf("%.1f", d.WaitMS)
			row[8] = fmt.Sprintf("%.0f%%", d.WaitShare*100)
		}
		table = append(table, row)
	}
	return report.Table(headers, table)
}

// String renders the table followed by the findings — the human-readable
// bottleneck report.
func (r *Report) String() string {
	var b strings.Builder
	if t := r.Table(); t != "" {
		b.WriteString(t)
	}
	for _, f := range r.Findings {
		b.WriteString("  * ")
		b.WriteString(f)
		b.WriteString("\n")
	}
	return b.String()
}
