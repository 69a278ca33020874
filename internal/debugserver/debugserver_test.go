package debugserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"streammine/internal/metrics"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("demo_total", "A demo counter.").Add(3)

	var mu sync.Mutex
	var healthErr error
	s := New(reg, func() error {
		mu.Lock()
		defer mu.Unlock()
		return healthErr
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	base := "http://" + addr

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "demo_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	if code, body, _ = get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	mu.Lock()
	healthErr = errors.New("node down")
	mu.Unlock()
	if code, body, _ = get(t, base+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "node down") {
		t.Errorf("unhealthy /healthz = %d %q, want 503 with cause", code, body)
	}

	if code, _, _ = get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

func TestServerNilHealth(t *testing.T) {
	s := New(metrics.NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Close()
	if code, _, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz with nil health = %d, want 200", code)
	}
}

func TestServerHealthzPressure(t *testing.T) {
	s := New(metrics.NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// No provider: plain liveness line.
	_, body, _ := get(t, "http://"+addr+"/healthz")
	if body != "ok\n" {
		t.Fatalf("healthz body = %q", body)
	}

	var mu sync.Mutex
	snapshot := ""
	s.SetPressure(func() string {
		mu.Lock()
		defer mu.Unlock()
		return snapshot
	})

	// Empty snapshot appends nothing.
	_, body, _ = get(t, "http://"+addr+"/healthz")
	if body != "ok\n" {
		t.Fatalf("healthz with empty pressure = %q", body)
	}

	mu.Lock()
	snapshot = `pressure: [{"node":"sketch","dataDepth":7,"dataCap":32}]`
	mu.Unlock()
	_, body, _ = get(t, "http://"+addr+"/healthz")
	if !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("liveness line missing: %q", body)
	}
	if !strings.Contains(body, `"dataDepth":7`) || !strings.Contains(body, `"node":"sketch"`) {
		t.Fatalf("pressure snapshot missing from healthz: %q", body)
	}

	// Pressure rides along with a degraded report too.
	s.SetDegraded(func() []string { return []string{"bridge a:0->b:0"} })
	_, body, _ = get(t, "http://"+addr+"/healthz")
	if !strings.HasPrefix(body, "degraded: bridge a:0->b:0\n") || !strings.Contains(body, "pressure: ") {
		t.Fatalf("degraded+pressure body = %q", body)
	}
}

// do issues a request with an arbitrary method and decodes the response.
func do(t *testing.T, method, url, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// wantJSONError asserts the uniform debug-endpoint error shape: the
// given status, an application/json content type, and a parseable
// {"error": ...} body whose message contains fragment.
func wantJSONError(t *testing.T, code int, body string, hdr http.Header, wantCode int, fragment string) {
	t.Helper()
	if code != wantCode {
		t.Errorf("status = %d, want %d (body %q)", code, wantCode, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q, want application/json", ct)
	}
	var parsed struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, body)
	}
	if parsed.Error == "" || !strings.Contains(parsed.Error, fragment) {
		t.Errorf("error = %q, want substring %q", parsed.Error, fragment)
	}
}

// TestSectionRoutes is the route table of the one /debug/<name> handler,
// over one section of each shape a process registers: a JSON snapshot
// (cluster, health, recovery, speculation) and a text state with a POST
// that applies parameters (chaos). Every failure — name not registered
// → 404, nothing to show yet → 404, wrong method → 405, rejected input
// → 400 — answers the same {"error": "..."} JSON body, so pollers parse
// one shape.
func TestSectionRoutes(t *testing.T) {
	s := New(metrics.NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var applied url.Values
	s.Register(
		Section{Name: "view", Get: func() any { return map[string]int{"workers": 2} }},
		Section{Name: "empty", Get: func() any { return nil }},
		// A provider handing back its typed "nothing yet" must not be
		// served as a 200 "null".
		Section{Name: "typednil", Get: func() any { return (*struct{ N int })(nil) }},
		Section{
			Name: "state",
			Get:  func() any { return "off" },
			Post: func(q url.Values) (any, error) {
				if q.Get("fault") == "bogus" {
					return nil, errors.New("unknown fault \"bogus\"")
				}
				applied = q
				return "net_delay=" + q.Get("net_delay"), nil
			},
		},
	)

	const jsonType, textType = "application/json", "text/plain; charset=utf-8"
	for _, tc := range []struct {
		method, path, form string
		code               int
		ctype, want        string
	}{
		{http.MethodGet, "/debug/unset", "", http.StatusNotFound, jsonType, "not enabled"},
		{http.MethodPost, "/debug/unset", "", http.StatusNotFound, jsonType, "not enabled"},
		{http.MethodGet, "/debug/empty", "", http.StatusNotFound, jsonType, "no data yet"},
		{http.MethodGet, "/debug/typednil", "", http.StatusNotFound, jsonType, "no data yet"},
		{http.MethodPost, "/debug/view", "", http.StatusMethodNotAllowed, jsonType, "POST not allowed; use GET"},
		{http.MethodDelete, "/debug/state", "", http.StatusMethodNotAllowed, jsonType, "DELETE not allowed; use GET or POST"},
		{http.MethodPost, "/debug/state", "fault=bogus", http.StatusBadRequest, jsonType, "unknown fault"},
		{http.MethodGet, "/debug/view", "", http.StatusOK, jsonType, `"workers": 2`},
		{http.MethodGet, "/debug/state", "", http.StatusOK, textType, "off\n"},
		{http.MethodPost, "/debug/state?net_delay=5ms", "", http.StatusOK, textType, "net_delay=5ms\n"},
	} {
		code, body, hdr := do(t, tc.method, "http://"+addr+tc.path, tc.form)
		if code != http.StatusOK {
			wantJSONError(t, code, body, hdr, tc.code, tc.want)
			continue
		}
		if code != tc.code || hdr.Get("Content-Type") != tc.ctype || !strings.Contains(body, tc.want) {
			t.Errorf("%s %s = %d %q (%s), want %d with %q (%s)",
				tc.method, tc.path, code, body, hdr.Get("Content-Type"), tc.code, tc.want, tc.ctype)
		}
	}
	if applied.Get("net_delay") != "5ms" {
		t.Errorf("POST handler saw params %v, want net_delay=5ms", applied)
	}
}
