package ids

import (
	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
)

// ThresholdRule is a tiny deterministic detector over the window feature
// vector: a packet is malicious when its window's SYN-without-ACK ratio or
// UDP fraction crosses a threshold — the flood signatures of the paper's
// three attack vectors. It implements ml.Classifier, so it plugs in where
// a trained model would; the mitigation sweep and a scenario file's "ids"
// unit (scenario.Definition.IDS, which ddoshield runs) use it because it
// needs no training data and behaves identically on every host.
type ThresholdRule struct {
	synIdx, udpIdx int
	// SynNoAck flags windows whose win_syn_noack_ratio exceeds it
	// (default 20).
	SynNoAck float64
	// UDPFrac flags windows whose win_udp_fraction exceeds it
	// (default 0.4).
	UDPFrac float64
}

// NewThresholdRule returns the rule with default thresholds, with feature
// indices resolved from the canonical features.Names layout.
func NewThresholdRule() *ThresholdRule {
	r := &ThresholdRule{SynNoAck: 20, UDPFrac: 0.4, synIdx: -1, udpIdx: -1}
	for i, n := range features.Names() {
		switch n {
		case "win_syn_noack_ratio":
			r.synIdx = i
		case "win_udp_fraction":
			r.udpIdx = i
		}
	}
	return r
}

// Predict implements ml.Classifier.
func (r *ThresholdRule) Predict(x []float64) int {
	if r.synIdx >= 0 && x[r.synIdx] > r.SynNoAck {
		return dataset.Malicious
	}
	if r.udpIdx >= 0 && x[r.udpIdx] > r.UDPFrac {
		return dataset.Malicious
	}
	return dataset.Benign
}

// Name implements ml.Classifier.
func (r *ThresholdRule) Name() string { return "threshold-rule" }
