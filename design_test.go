package mpdash

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignCitationsResolve: every "DESIGN.md §N" in the repo's Go files
// names a "## N." heading of DESIGN.md, so renumbering the document
// cannot leave a comment pointing at the wrong section. A bare §N cites
// the paper and is not checked.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN\.md §(\d+)`)
	cited := 0
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", path, m[1], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Error("no DESIGN.md citations found: is the test running at the repo root?")
	}
}
