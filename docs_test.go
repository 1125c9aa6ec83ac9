package clustervp_test

import (
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches a markdown [text](target) link and captures the target.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve: every relative [text](target) link in the
// repository's markdown files names a file or directory that exists, so
// the docs cannot rot silently. External links and in-page anchors are
// not checked; a #fragment on a relative link is ignored.
func TestMarkdownLinksResolve(t *testing.T) {
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Ext(path) != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), target)); err != nil {
				t.Errorf("%s: broken link -> %s", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no markdown files to check")
	}
}

// TestExamplesArePrograms: every examples/* directory stays a main
// package, so the "go run ./examples/<name>" lines in the docs work.
func TestExamplesArePrograms(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	programs := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		programs++
		dir := filepath.Join("examples", e.Name())
		if pkg, err := build.ImportDir(dir, 0); err != nil || !pkg.IsCommand() {
			t.Errorf("%s is not a main package (%v)", dir, err)
		}
	}
	if programs == 0 {
		t.Fatal("found no example programs")
	}
}
