package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"streammine/internal/debugserver"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
)

// modeSections lists what each mode of the binary mounts with every
// facility flag on (-chaos, -flightrec, -profile-speculation). The
// closures are never called here, so nil engines and peers are fine.
func modeSections(t *testing.T) map[string][]debugserver.Section {
	obs := &observability{}
	obs.enableChaos()
	obs.enableFlightRec(t.TempDir(), "test")
	t.Cleanup(obs.close)
	waste := func() *profiler.Summary { return nil }
	return map[string][]debugserver.Section{
		"coordinator": append(coordinatorSections(nil), obs.sections...),
		"worker":      append(speculationSections(true, waste), obs.sections...),
		"engine":      append(speculationSections(true, waste), obs.sections...),
	}
}

// TestSectionRouteTable is the one route table of the debug surface:
// for every section a coordinator, a worker and a local engine register,
// the route answers 404 "not enabled" while nothing is registered, 404
// "no data yet" while its provider has nothing — a typed nil included,
// which once answered 200 "null" — and 405 on a method it does not take,
// all with the uniform {"error": ...} body.
func TestSectionRouteTable(t *testing.T) {
	for mode, secs := range modeSections(t) {
		for _, sec := range secs {
			srv := debugserver.New(metrics.NewRegistry(), nil)
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			url := "http://" + addr + "/debug/" + sec.Name
			wantError(t, mode, http.MethodGet, url, http.StatusNotFound, "not enabled")

			srv.Register(debugserver.Section{
				Name: sec.Name,
				Get:  func() any { return (*profiler.Summary)(nil) },
				Post: sec.Post,
			})
			wantError(t, mode, http.MethodGet, url, http.StatusNotFound, "no data yet")
			wantError(t, mode, http.MethodDelete, url, http.StatusMethodNotAllowed, "DELETE not allowed")
			if sec.Post == nil {
				wantError(t, mode, http.MethodPost, url, http.StatusMethodNotAllowed, "POST not allowed; use GET")
			}
			_ = srv.Close()
		}
	}
}

// wantError asserts one uniform error answer.
func wantError(t *testing.T, mode, method, url string, code int, fragment string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %s %s: %v", mode, method, url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var parsed struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != code || resp.Header.Get("Content-Type") != "application/json" ||
		json.Unmarshal(body, &parsed) != nil || !strings.Contains(parsed.Error, fragment) {
		t.Errorf("%s: %s %s = %d %q (%s), want %d with JSON error containing %q",
			mode, method, url, resp.StatusCode, body, resp.Header.Get("Content-Type"), code, fragment)
	}
}

// TestSectionsDocumented holds docs/OBSERVABILITY.md and the binary to
// each other: every /debug/<name> the handbook mentions is mounted by
// some mode, and every mounted section is in the handbook.
func TestSectionsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`/debug/([a-z]+)`).FindAllStringSubmatch(string(doc), -1) {
		if m[1] != "pprof" {
			documented[m[1]] = true
		}
	}
	mounted := map[string]bool{}
	for _, secs := range modeSections(t) {
		for _, sec := range secs {
			mounted[sec.Name] = true
		}
	}
	for name := range documented {
		if !mounted[name] {
			t.Errorf("docs/OBSERVABILITY.md mentions /debug/%s but no mode mounts it", name)
		}
	}
	for name := range mounted {
		if !documented[name] {
			t.Errorf("/debug/%s is mounted but docs/OBSERVABILITY.md does not mention it", name)
		}
	}
	if len(mounted) < 6 {
		t.Errorf("only %d sections mounted across all modes, want at least 6", len(mounted))
	}
}
