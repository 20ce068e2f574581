package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpdash/internal/field"
)

// decodeRows parses the study export and checks it holds the one location.
func decodeRows(t *testing.T, b []byte) {
	t.Helper()
	var rows []field.ExportRow
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatalf("output is not the study JSON: %v\n%s", err, b)
	}
	if len(rows) != 1 || rows[0].Location != "Airport" || len(rows[0].Arms) != len(field.SchemeKeys()) {
		t.Fatalf("rows %+v, want Airport with every arm", rows)
	}
}

// TestJSONSingleLocation: a one-location run writes its JSON to a file,
// and with -json - stdout carries the JSON alone while the table goes to
// stderr.
func TestJSONSingleLocation(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "study.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-location", "Airport", "-chunks", "1", "-json", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decodeRows(t, b)
		if !strings.Contains(stdout.String(), "Airport") {
			t.Errorf("stdout lacks the table:\n%s", stdout.String())
		}
	})
	t.Run("stdout", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-location", "Airport", "-chunks", "1", "-json", "-"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		decodeRows(t, stdout.Bytes())
		if !strings.Contains(stderr.String(), "Airport") {
			t.Errorf("stderr lacks the table:\n%s", stderr.String())
		}
	})
}
