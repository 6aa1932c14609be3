package testbed

import (
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// DatasetCollector turns tapped traffic into a labeled corpus, the
// testbed's replacement for the paper's capture-then-preprocess pipeline:
// every packet of every closed window becomes one labeled row.
type DatasetCollector struct {
	extractor *features.Extractor
	labeler   func(b *features.Basic) int
	corpus    dataset.Corpus
}

// NewDatasetCollector builds a collector over the given window size
// labeled by the testbed's ground-truth oracle.
func (tb *Testbed) NewDatasetCollector(window time.Duration) *DatasetCollector {
	dc := &DatasetCollector{labeler: tb.Labeler()}
	dc.extractor = features.NewExtractor(window, func(w *features.Window) {
		dc.corpus.AddWindow(w, dc.labeler)
	})
	return dc
}

// Tap returns the capture tap to install with Testbed.AddTap.
func (dc *DatasetCollector) Tap() netsim.Tap {
	return func(t sim.Time, raw []byte, _ trace.Context) {
		// Pooled decode: AddPacket copies the Basic features out by value,
		// so the Packet never outlives the tap callback.
		p := packet.Acquire()
		if err := packet.DecodeInto(p, t, raw); err == nil {
			dc.extractor.AddPacket(p)
		}
		p.Release()
	}
}

// Dataset closes the trailing window and returns the corpus.
func (dc *DatasetCollector) Dataset() *dataset.Corpus {
	dc.extractor.Flush()
	return &dc.corpus
}

// ThroughputSample is one point of a per-second byte-rate timeline.
type ThroughputSample struct {
	Time sim.Time
	// RxBytes is bytes received by the observed NIC during the second.
	RxBytes uint64
	// TxBytes is bytes sent by the observed NIC during the second.
	TxBytes uint64
}

// ThroughputSampler records a NIC's per-second receive/send volume —
// the "alterations in the target server's throughput" measurement DDoSim
// reports during attacks.
type ThroughputSampler struct {
	nic     *netsim.NIC
	lastRx  uint64
	lastTx  uint64
	samples []ThroughputSample
}

// NewThroughputSampler starts sampling the TServer's NIC every second.
func (tb *Testbed) NewThroughputSampler() *ThroughputSampler {
	ts := &ThroughputSampler{nic: tb.tserver.Host().NIC()}
	_, ts.lastRx, _, ts.lastTx = ts.nic.Stats()
	tb.sched.Every(time.Second, func() {
		_, rx, _, tx := ts.nic.Stats()
		ts.samples = append(ts.samples, ThroughputSample{
			Time:    tb.sched.Now(),
			RxBytes: rx - ts.lastRx,
			TxBytes: tx - ts.lastTx,
		})
		ts.lastRx, ts.lastTx = rx, tx
	})
	return ts
}

// Samples returns the timeline.
func (ts *ThroughputSampler) Samples() []ThroughputSample {
	out := make([]ThroughputSample, len(ts.samples))
	copy(out, ts.samples)
	return out
}
