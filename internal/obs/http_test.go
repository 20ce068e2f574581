package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpen is the commands' bring-up: the journal streams to the file,
// the endpoint answers where logf says it does, and the returned func
// flushes the one and stops the other.
func TestOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var said string
	tel, closeTel, err := Open(path, "127.0.0.1:0", func(format string, a ...any) { said += fmt.Sprintf(format, a...) })
	if err != nil {
		t.Fatal(err)
	}
	url := strings.TrimSpace(strings.TrimPrefix(said, "telemetry: "))
	if body, _ := get(t, url); !strings.Contains(body, "obs_journal_dropped_total") {
		t.Errorf("logf said %q; nothing of ours answers there", said)
	}
	tel.Emit(NewEvent("open.test"))
	closeTel()
	if got, err := os.ReadFile(path); err != nil || !strings.Contains(string(got), "open.test") {
		t.Errorf("journal file after close: %q, %v", got, err)
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Error("endpoint still answers after close")
	}

	if _, _, err := Open(filepath.Join(path, "below-a-file"), "", nil); err == nil {
		t.Error("Open created a journal below a regular file")
	}
	if _, _, err := Open("", "256.0.0.1:0", nil); err == nil {
		t.Error("Open served metrics on an impossible address")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tel := New()
	tel.Registry.Counter("mpdash_http_test_total", "Test counter.", Labels{"path": "wifi"}).Add(3)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	body, ctype := get(t, srv.URL+"/metrics")
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, `mpdash_http_test_total{path="wifi"} 3`) {
		t.Errorf("metrics body missing series:\n%s", body)
	}

	body, _ = get(t, srv.URL+"/")
	if !strings.Contains(body, "/metrics") {
		t.Errorf("index does not list endpoints: %q", body)
	}

	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", resp.StatusCode)
	}

	// pprof index must answer (the profiles themselves are exercised by
	// net/http/pprof's own tests).
	body, _ = get(t, srv.URL+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected: %.80q", body)
	}
}

func TestServe(t *testing.T) {
	tel := New()
	tel.Registry.Gauge("mpdash_serve_test", "Test gauge.", nil).Set(1.5)
	ms, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	body, _ := get(t, "http://"+ms.Addr()+"/metrics")
	if !strings.Contains(body, "mpdash_serve_test 1.5") {
		t.Errorf("served metrics missing gauge:\n%s", body)
	}
	body, _ = get(t, "http://"+ms.Addr()+"/debug/vars")
	if !strings.Contains(body, "cmdline") {
		t.Errorf("expvar body unexpected: %.80q", body)
	}
}

func get(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return string(b), resp.Header.Get("Content-Type")
}
