package main

import (
	"path/filepath"
	"strconv"
)

// runTraced makes the separate traced run of one workload: the corpus and
// models are prepared, the micro-cost suite prices every layer, the
// workload runs once with spans recorded and once without, and the layer
// metrics are derived from the four. End-to-end metrics never come from
// here.
func (r *runner) runTraced(workload string, seed int64) (*outcome, layerSet, error) {
	out := &outcome{Workload: workload, Seed: seed}
	layers := layerSet{}
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	dir, cleanup, err := r.runDir()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()

	// Every traced run trains the models: the predict and load micro-costs
	// need them whatever the workload.
	mode := modePrepModels
	if workload == wlIDSReplay {
		mode = modePrepCapture
	}
	prep, err := r.prep(workload, mode, seed, dir)
	if !out.child(prep, err, "input generation") {
		return out, layers, nil
	}
	micro, err := r.spawn("-workload", workload, "-mode", modeLayers, "-seed", strconv.FormatInt(seed, 10), "-dir", dir)
	if !out.child(micro, err, "micro-cost suite") {
		return out, layers, nil
	}

	traceFile := filepath.Join(r.o.outDir, "trace-"+workload+".json")
	traced, err := r.rep(workload, seed, dir, "-traced", "-tracefile", traceFile)
	if !out.child(traced, err, "traced repeat") {
		return out, layers, nil
	}
	plain, err := r.rep(workload, seed, dir)
	if !out.child(plain, err, "untraced repeat") {
		return out, layers, nil
	}
	out.Digest, out.Events = plain.Digest, plain.Events
	out.attempt(traced.Digest == plain.Digest, "%s: traced digest %s differs from untraced %s", workload, traced.Digest, plain.Digest)

	// Later sources win: counts and wall-clock numbers come from the
	// untraced repeat, the traced one adds what only it can see (barrier
	// waits, transport events scanned at slice boundaries).
	for _, src := range []map[string]float64{prep.Counters, micro.Counters, traced.Counters, plain.Counters} {
		for name, v := range src {
			layers[name] = v
		}
	}
	if plain.Events > 0 {
		layers["sim.ns_per_event"] = plain.TimedS * 1e9 / float64(plain.Events)
	}
	layers["trace.overhead_share"] = (traced.TimedS - plain.TimedS) / plain.TimedS
	for phase, p := range traced.Phases {
		layers["phase."+phase+"_ms_per_sim_s.p50"] = p.P50
		if p.Tail != "" {
			layers["phase."+phase+"_ms_per_sim_s."+p.Tail] = p.TailValue
		}
		layers["phase."+phase+"_slices"] = float64(p.N)
	}
	for model, w := range traced.Windows {
		layers["ids.window_us.p50."+model] = w.P50
		layers["ids.window_us.p90."+model] = w.P90
		layers["ids.window_samples."+model] = float64(w.N)
	}

	switch workload {
	case wlFleetPDES:
		serial, err := r.rep(wlFleetSerial, seed, dir)
		out.attempt(err == nil && serial.Digest == plain.Digest, "%s: serial reference: digest %v vs %s (err %v)", workload, digestOf(serial), plain.Digest, err)
		if err == nil {
			layers["sim.pdes_speedup"] = serial.TimedS / plain.TimedS
		}
	case wlPaper10Live:
		off, err := r.rep(workload, seed, dir, "-variant", variantTraceOff)
		out.attempt(err == nil, "%s: TraceSampleRate=0 repeat failed: %v", workload, err)
		if err == nil {
			layers["telemetry.trace_cost_share"] = (plain.TimedS - off.TimedS) / plain.TimedS
		}
	}
	if sum, ok := layerSum(workload, layers); ok {
		layers["layersum.explained_s"] = sum
		layers["layersum.residual_share"] = 1 - sum/plain.TimedS
	}
	return out, layers, nil
}

// layerSum is ROADMAP item 1b: the timed region's wall clock as explained
// by counts x micro-costs, in seconds. Each term prices a disjoint kind of
// work at the inclusive cost of the topmost layer that does it (an HTTP
// transaction's micro-cost already contains its TCP segments, hops and
// scheduler events), so the terms add without double counting. What they
// leave over — deep-heap sift cost, cache misses at fleet size, ARP,
// telnet sessions, C2 chatter, video and FTP priced as HTTP — is the
// residual.
func layerSum(workload string, l layerSet) (seconds float64, ok bool) {
	ns := l["apps.txns_ok"]*l["apps.http_txn_us"]*1e3 + l["botnet.probes"]*l["botnet.scan_probe_ns"]
	switch workload {
	case wlFleetSerial:
	case wlPaper10Live:
		ns += l["botnet.flood_commanded"] * l["botnet.flood_ns_per_packet"]
		for _, model := range modelNames {
			ns += l["ids.packets."+model] * (l["ids.feed_ns_per_packet"] + l["packet.build_decode_ns"]/2 + l["ml.predict_ns."+model])
		}
	default:
		return 0, false
	}
	return ns / 1e9, true
}
