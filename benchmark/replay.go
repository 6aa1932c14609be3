package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ddoshield/internal/ids"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/packet"
	"ddoshield/internal/pcap"
)

// replayOne feeds the capture through one model's detection unit, the
// cmd/detect path: pcap.Reader over the open file, pooled DecodeInto, Feed.
// Traced, every closed window becomes a span.
func replayOne(path string, b modelio.Bundle, tr *tracer, parent int) (*ids.Unit, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		return nil, 0, err
	}
	cfg := ids.Config{Model: b.Model, Scaler: b.Scaler, Window: time.Second, Name: b.Model.Name()}
	if tr != nil {
		name := "window:" + b.Model.Name()
		open := tr.begin(name, parent)
		cfg.OnWindow = func(w *ids.WindowResult) {
			tr.end(open, map[string]float64{"packets": float64(w.Packets), "predict_us": float64(w.CPU.Microseconds())})
			open = tr.begin(name, parent)
		}
	}
	unit := ids.New(cfg)
	p := packet.Acquire()
	defer p.Release()
	frames := 0
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		frames++
		if packet.DecodeInto(p, rec.Time, rec.Data) == nil {
			unit.Feed(p)
		}
	}
	unit.Flush()
	if tr != nil {
		// Flush closed the last window and the hook opened a span that no
		// window will ever close.
		tr.spans = tr.spans[:len(tr.spans)-1]
	}
	return unit, frames, nil
}

// runReplay is one repeat of ids-replay. Set-up loads the three saved
// bundles; the timed region classifies the whole capture once per model.
func runReplay(dir string, tr *tracer) (*repResult, error) {
	res := &repResult{Workload: wlIDSReplay, Counters: map[string]float64{}}
	root := tr.begin("rep", 0)
	// Loading the three bundles is the set-up.
	id := tr.begin("modelio.LoadBundleFile", root)
	start := time.Now()
	bundles, err := loadBundles(dir)
	if err != nil {
		return nil, err
	}
	res.SetupS = time.Since(start).Seconds()
	tr.end(id, nil)
	var meta captureMeta
	data, err := os.ReadFile(captureMetaPath(dir))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("capture meta: %w", err)
	}
	runtime.GC()

	gc0 := readGC()
	units := make([]*ids.Unit, 0, len(bundles))
	timed := tr.begin("timed", root)
	start = time.Now()
	for _, b := range bundles {
		id := tr.begin("replay:"+b.Model.Name(), timed)
		u, frames, err := replayOne(capturePath(dir), b, tr, id)
		if err != nil {
			return nil, err
		}
		tr.end(id, map[string]float64{"frames": float64(frames), "cpu_s": u.CPUTime().Seconds()})
		units = append(units, u)
		res.Counters["pcap.records"] = float64(frames)
	}
	res.TimedS = time.Since(start).Seconds()
	tr.end(timed, nil)
	gc1 := readGC()
	res.SimS = meta.Seconds
	res.LiveHeapMB = liveHeapMB()
	res.PeakRSSMB = peakRSSMB()
	tr.end(root, nil)
	runtime.KeepAlive(units)
	hostCounters(gc0, gc1, res.Counters)

	// The replayed verdicts are the output; their fingerprint is the digest.
	var all string
	for _, u := range units {
		got := alertString(u)
		all += u.Name() + "=" + got + "\n"
		res.Counters["ids.packets."+u.Name()] = float64(u.PacketsSeen())
		res.Counters["ids.cpu_s."+u.Name()] = u.CPUTime().Seconds()
		res.check("replay-matches-live:"+u.Name(), got == meta.Alerts[u.Name()],
			"%d windows replayed, live run recorded %q...", len(u.Results()), head(meta.Alerts[u.Name()], 24))
	}
	res.Digest = shortHash(all)
	res.check("capture-complete", int(res.Counters["pcap.records"]) == meta.Records,
		"%v records read, %d captured", res.Counters["pcap.records"], meta.Records)
	return res, nil
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
