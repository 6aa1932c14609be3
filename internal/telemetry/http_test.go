package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ddoshield/internal/sim"
)

// get issues one request against the live server's handler and returns the
// response status, content type and body.
func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestLiveServerEmptySnapshots pins the before-first-Update contract: every
// endpoint answers 204 No Content with its content type already set.
func TestLiveServerEmptySnapshots(t *testing.T) {
	s := NewLiveServerOptions(LiveServerOptions{})
	h := s.Handler()
	cases := []struct {
		path, contentType string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/trace", "application/json"},
	}
	for _, c := range cases {
		status, ct, body := get(t, h, c.path)
		if status != http.StatusNoContent {
			t.Errorf("%s before Update: status=%d, want 204", c.path, status)
		}
		if ct != c.contentType {
			t.Errorf("%s: content-type=%q, want %q", c.path, ct, c.contentType)
		}
		if body != "" {
			t.Errorf("%s: unexpected body %q", c.path, body)
		}
	}
}

// TestLiveServerServesSnapshots publishes a snapshot and checks each
// endpoint returns 200 with the rendered content.
func TestLiveServerServesSnapshots(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("frames_total", L("nic", "tserver/eth0"))
	c.Add(42)
	rec := NewRecorder(16)
	rec.Emit(sim.Second, CatIDS, "alert", "ids", 7)

	s := NewLiveServerOptions(LiveServerOptions{})
	s.Update(2*sim.Second, reg, rec)
	h := s.Handler()

	status, ct, body := get(t, h, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status=%d", status)
	}
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics: content-type=%q", ct)
	}
	if !strings.Contains(body, `frames_total{nic="tserver/eth0"} 42`) {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	status, ct, body = get(t, h, "/metrics.json")
	if status != http.StatusOK || ct != "application/json" {
		t.Fatalf("/metrics.json: status=%d content-type=%q", status, ct)
	}
	if !strings.Contains(body, `"frames_total"`) {
		t.Fatalf("/metrics.json body missing counter:\n%s", body)
	}

	status, ct, body = get(t, h, "/trace")
	if status != http.StatusOK || ct != "application/json" {
		t.Fatalf("/trace: status=%d content-type=%q", status, ct)
	}
	if !strings.Contains(body, `"alert"`) {
		t.Fatalf("/trace body missing event:\n%s", body)
	}
}

// TestLiveServerProfileEndpoint checks /profile.json serves exactly the
// bytes published by UpdateProfile (204 before the first publish).
func TestLiveServerProfileEndpoint(t *testing.T) {
	s := NewLiveServerOptions(LiveServerOptions{})
	h := s.Handler()
	status, _, _ := get(t, h, "/profile.json")
	if status != http.StatusNoContent {
		t.Fatalf("/profile.json before publish: status=%d, want 204", status)
	}
	doc := `{"virtual":{"eval_domains":3}}`
	s.UpdateProfile([]byte(doc))
	status, ct, body := get(t, h, "/profile.json")
	if status != http.StatusOK || ct != "application/json" {
		t.Fatalf("/profile.json: status=%d content-type=%q", status, ct)
	}
	if body != doc {
		t.Fatalf("/profile.json body = %q, want %q", body, doc)
	}
}

// TestLiveServerMitigationEndpoint checks /mitigation.json serves exactly
// the bytes published by UpdateMitigation (204 before the first publish),
// the defense-scoreboard analogue of the profile endpoint.
func TestLiveServerMitigationEndpoint(t *testing.T) {
	s := NewLiveServerOptions(LiveServerOptions{})
	h := s.Handler()
	status, ct, _ := get(t, h, "/mitigation.json")
	if status != http.StatusNoContent {
		t.Fatalf("/mitigation.json before publish: status=%d, want 204", status)
	}
	if ct != "application/json" {
		t.Fatalf("/mitigation.json: content-type=%q", ct)
	}
	doc := `{"now_s":12,"units":[{"unit":"ids","attack_drops":7}]}`
	s.UpdateMitigation([]byte(doc))
	status, ct, body := get(t, h, "/mitigation.json")
	if status != http.StatusOK || ct != "application/json" {
		t.Fatalf("/mitigation.json: status=%d content-type=%q", status, ct)
	}
	if body != doc {
		t.Fatalf("/mitigation.json body = %q, want %q", body, doc)
	}
	// Republish: handlers must serve the newest board.
	s.UpdateMitigation([]byte(`{"now_s":13}`))
	if _, _, body = get(t, h, "/mitigation.json"); body != `{"now_s":13}` {
		t.Fatalf("stale scoreboard served: %q", body)
	}
}

// TestLiveServerPprofOptIn pins the pprof exposure contract: the runtime
// profiler endpoints exist only when LiveServerOptions.EnablePprof is set;
// the default handler keeps them 404.
func TestLiveServerPprofOptIn(t *testing.T) {
	status, _, _ := get(t, NewLiveServerOptions(LiveServerOptions{}).Handler(), "/debug/pprof/")
	if status != http.StatusNotFound {
		t.Fatalf("default handler serves pprof: status=%d, want 404", status)
	}
	s := NewLiveServerOptions(LiveServerOptions{EnablePprof: true})
	h := s.Handler()
	status, _, body := get(t, h, "/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("pprof index: status=%d, want 200", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index body unexpected:\n%s", body)
	}
	if status, _, _ = get(t, h, "/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof cmdline: status=%d, want 200", status)
	}
}

// TestLiveServerUpdateRefreshesCache verifies handlers serve the latest
// published snapshot, not the one rendered at first Update.
func TestLiveServerUpdateRefreshesCache(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("ticks_total")
	s := NewLiveServerOptions(LiveServerOptions{})

	c.Inc()
	s.Update(sim.Second, reg, nil)
	h := s.Handler()
	_, _, body := get(t, h, "/metrics")
	if !strings.Contains(body, "ticks_total 1") {
		t.Fatalf("first snapshot:\n%s", body)
	}

	c.Add(9)
	_, _, body = get(t, h, "/metrics")
	if !strings.Contains(body, "ticks_total 1") {
		t.Fatalf("cache must not move before Update:\n%s", body)
	}

	s.Update(2*sim.Second, reg, nil)
	_, _, body = get(t, h, "/metrics")
	if !strings.Contains(body, "ticks_total 10") {
		t.Fatalf("second snapshot not served:\n%s", body)
	}
}
