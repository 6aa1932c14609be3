package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ddoshield/internal/sim"
)

func buildTestRegistry() *Registry {
	reg := NewRegistry()
	reg.NewCounter("netsim_nic_rx_frames_total", L("nic", "tserver/eth0")).Add(12)
	reg.RegisterGaugeFunc(func() float64 { return 7.25 }, "sysmon_cpu_percent", L("target", "ids"))
	h := reg.NewHistogram("ids_window_cpu_us", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	return reg
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, buildTestRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE netsim_nic_rx_frames_total counter",
		`netsim_nic_rx_frames_total{nic="tserver/eth0"} 12`,
		"# TYPE sysmon_cpu_percent gauge",
		`sysmon_cpu_percent{target="ids"} 7.25`,
		"# TYPE ids_window_cpu_us histogram",
		`ids_window_cpu_us_bucket{le="10"} 1`,
		`ids_window_cpu_us_bucket{le="100"} 2`,
		`ids_window_cpu_us_bucket{le="+Inf"} 3`,
		"ids_window_cpu_us_sum 5055",
		"ids_window_cpu_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renders are byte-identical.
	var buf2 bytes.Buffer
	_ = WritePrometheus(&buf2, buildTestRegistry())
	if buf.String() != buf2.String() {
		t.Fatal("prometheus export not deterministic")
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, 90*sim.Second, buildTestRegistry()); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		SimNowNs int64 `json:"sim_now_ns"`
		Metrics  []struct {
			Name  string   `json:"name"`
			Type  string   `json:"type"`
			Value *float64 `json:"value"`
			Count *uint64  `json:"count"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if snap.SimNowNs != int64(90*sim.Second) {
		t.Fatalf("sim_now_ns = %d", snap.SimNowNs)
	}
	if len(snap.Metrics) != 3 {
		t.Fatalf("got %d metrics, want 3", len(snap.Metrics))
	}
	byName := map[string]int{}
	for i, m := range snap.Metrics {
		byName[m.Name] = i
	}
	if m := snap.Metrics[byName["netsim_nic_rx_frames_total"]]; m.Value == nil || *m.Value != 12 {
		t.Fatalf("counter row wrong: %+v", m)
	}
	if m := snap.Metrics[byName["ids_window_cpu_us"]]; m.Count == nil || *m.Count != 3 {
		t.Fatalf("histogram row wrong: %+v", m)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	rec := NewRecorder(16)
	rec.Emit(1500*sim.Microsecond, CatTCP, "retransmit", "dev00/eth0", 64)
	rec.Emit(2*sim.Second, CatContainer, "crash", "dev00-camera", 1)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name  string  `json:"name"`
		Cat   string  `json:"cat"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Args  struct {
			Actor string `json:"actor"`
			Value int64  `json:"value"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v\n%s", err, buf.String())
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "retransmit" || evs[0].Cat != "tcp" || evs[0].Phase != "i" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[0].TS != 1500 { // 1500 µs
		t.Fatalf("ts = %v µs, want 1500", evs[0].TS)
	}
	if evs[1].Args.Actor != "dev00-camera" || evs[1].Args.Value != 1 {
		t.Fatalf("event 1 args = %+v", evs[1].Args)
	}
}

func TestLiveServer(t *testing.T) {
	reg := buildTestRegistry()
	rec := NewRecorder(8)
	rec.Emit(sim.Second, CatFault, "crash", "dev01", 1)
	srv := NewLiveServerOptions(LiveServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/metrics"); code != 204 {
		t.Fatalf("before Update: /metrics = %d, want 204", code)
	}
	srv.Update(3*sim.Second, reg, rec)
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "netsim_nic_rx_frames_total") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"sim_now_ns"`) {
		t.Fatalf("/metrics.json = %d:\n%s", code, body)
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"crash"`) {
		t.Fatalf("/trace = %d:\n%s", code, body)
	}
}
