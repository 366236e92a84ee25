package served

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOperationsDocMatchesCode holds docs/OPERATIONS.md to the daemon it
// documents, both ways: the POST /runs field table names exactly
// StartRequest's JSON fields, the GET /healthz reason list names exactly
// the string literals in healthReasons (the reasons it appends), the
// GET /debug/trace stage table names exactly tracez's Stage* constants,
// and the metric tables name exactly the cptserved_* series the non-test
// code under internal/ and cmd/ spells (found as string literals with
// go/ast, as TestSinkNamedOnce finds sink names). A field, reason, stage
// or series added, renamed or removed on one side fails here until the
// other follows.
func TestOperationsDocMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	// The first table after the POST /runs heading; a row's first cell
	// may name several fields.
	docFields := map[string]bool{}
	tick := regexp.MustCompile("`([a-z_]+)`")
	_, sec, _ := strings.Cut(doc, "### `POST /runs`")
	inTable := false
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		for _, m := range tick.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			docFields[m[1]] = true
		}
	}
	codeFields := map[string]bool{}
	rt := reflect.TypeOf(StartRequest{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		codeFields[name] = true
	}
	sameNames(t, "POST /runs fields", docFields, codeFields)

	// The bullets of the GET /healthz section each open with one reason.
	docReasons := map[string]bool{}
	_, sec, _ = strings.Cut(doc, "### `GET /healthz`")
	sec, _, _ = strings.Cut(sec, "\n### ")
	for _, m := range regexp.MustCompile("(?m)^- `([a-z_]+)`").FindAllStringSubmatch(sec, -1) {
		docReasons[m[1]] = true
	}
	codeReasons := map[string]bool{}
	served, err := parser.ParseFile(token.NewFileSet(), "served.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range served.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "healthReasons" {
			for _, s := range stringLits(fn) {
				codeReasons[s] = true
			}
		}
	}
	sameNames(t, "GET /healthz reasons", docReasons, codeReasons)

	docStages := map[string]bool{}
	_, sec, _ = strings.Cut(doc, "### `GET /debug/trace`")
	sec, _, _ = strings.Cut(sec, "\n### ")
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+\\.[a-z]+)`").FindAllStringSubmatch(sec, -1) {
		docStages[m[1]] = true
	}
	codeStages := map[string]bool{}
	tz, err := parser.ParseFile(token.NewFileSet(), "../tracez/tracez.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range tz.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				if vs := spec.(*ast.ValueSpec); strings.HasPrefix(vs.Names[0].Name, "Stage") {
					for _, s := range stringLits(vs) {
						codeStages[s] = true
					}
				}
			}
		}
	}
	sameNames(t, "GET /debug/trace stages", docStages, codeStages)

	docMetrics := map[string]bool{}
	row := regexp.MustCompile("(?m)^\\| `(cptserved_[a-z0-9_]+)`")
	for _, m := range row.FindAllStringSubmatch(doc, -1) {
		docMetrics[m[1]] = true
	}
	codeMetrics := map[string]bool{}
	series := regexp.MustCompile(`^cptserved_[a-z0-9_]+$`)
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			for _, s := range stringLits(file) {
				if series.MatchString(s) {
					codeMetrics[s] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sameNames(t, "cptserved_* series", docMetrics, codeMetrics)
}

// stringLits returns the string literals spelled under n.
func stringLits(n ast.Node) []string {
	var lits []string
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				lits = append(lits, s)
			}
		}
		return true
	})
	return lits
}

// sameNames reports the names only the doc or only the code has.
func sameNames(t *testing.T, what string, doc, code map[string]bool) {
	t.Helper()
	var onlyDoc, onlyCode []string
	for n := range doc {
		if !code[n] {
			onlyDoc = append(onlyDoc, n)
		}
	}
	for n := range code {
		if !doc[n] {
			onlyCode = append(onlyCode, n)
		}
	}
	sort.Strings(onlyDoc)
	sort.Strings(onlyCode)
	if len(code) == 0 || len(onlyDoc)+len(onlyCode) > 0 {
		t.Errorf("%s: %d in the code; only in OPERATIONS.md %v, only in the code %v", what, len(code), onlyDoc, onlyCode)
	}
}
