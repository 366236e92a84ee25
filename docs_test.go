package cptgen

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCitedDocsExist holds the comments of every non-test Go file in the
// repository to the Markdown files they cite: a cited path such as
// docs/ARCHITECTURE.md must exist relative to the repository root or to the
// citing file's directory.
func TestCitedDocsExist(t *testing.T) {
	cite := regexp.MustCompile(`[\w./-]+\.md\b`)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	fset := token.NewFileSet()
	cited := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range cite.FindAllString(cg.Text(), -1) {
				cited++
				if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
					t.Errorf("%s: comment cites %s, which does not exist", fset.Position(cg.Pos()), ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no Markdown citations found; the walk is broken")
	}
}
