package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"calloc/internal/device"
	"calloc/internal/fingerprint"
	"calloc/internal/floorplan"
	"calloc/internal/leakcheck"
)

// testDatasetFile collects one small deterministic floor dataset and writes
// it where -data would find it.
func testDatasetFile(t *testing.T) string {
	t.Helper()
	spec := floorplan.Spec{
		ID: 81, Name: "AppTest", VisibleAPs: 24, PathLengthM: 10,
		Characteristics: "test",
		Model:           floorplan.Registry()[0].Model,
	}
	b := floorplan.Build(spec, 3)
	cfg := fingerprint.DefaultCollectConfig()
	cfg.Seed = 7
	ds, err := fingerprint.Collect(b, device.Registry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "floor0.gob")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAppServesAndShutsDownCleanly drives the app's real construction path —
// flags → buildNode → Start → HTTP traffic → Close — and asserts the process
// would exit with no goroutine left behind.
func TestAppServesAndShutsDownCleanly(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))

	f := baseFlags()
	f.data = testDatasetFile(t)
	f.backends = "knn"
	f.noTrainer = true
	if err := f.validate(); err != nil {
		t.Fatalf("flags should validate: %v", err)
	}

	n, datasets, err := buildNode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets) != 1 {
		t.Fatalf("built %d datasets, want 1", len(datasets))
	}
	n.Start()
	closed := false
	defer func() {
		if !closed {
			n.Close()
		}
	}()

	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{"rss": datasets[0].Train[0].RSS, "backend": "knn"})
	resp, err := http.Post(srv.URL+"/v1/localize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("localize returned %d, want 200", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["rp"]; !ok {
		t.Fatalf("localize response missing rp: %v", out)
	}

	n.Close()
	closed = true
}

// TestHTTPServerTimeouts: the server serveHTTP runs bounds slow request
// headers and idle keep-alive connections, so a trickling client cannot pin
// a connection indefinitely.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want the positive constant %v", srv.IdleTimeout, idleTimeout)
	}
}
