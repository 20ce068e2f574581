package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mpdash/cmd/internal/cli"
)

// TestQuickstartParses: every usage line of the command in its doc
// comment and in README.md parses. The trailing -h makes run return
// once its FlagSet has read every flag before it, so an unknown flag, a
// bad value or a stray argument fails the line.
func TestQuickstartParses(t *testing.T) {
	lines, err := cli.UsageLines("mpdash-edge", "main.go", "../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no usage lines found")
	}
	for _, args := range lines {
		var stderr bytes.Buffer
		if code := run(append(args, "-h"), io.Discard, &stderr); code != 0 {
			t.Errorf("mpdash-edge %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
		}
	}
}
