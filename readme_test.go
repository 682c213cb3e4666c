package opass

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeMetricsAreExported keeps README honest about metrics: every
// opass_* name it documents must be the value of an exported Metric*
// constant of one of the packages whose series a running opassd serves.
func TestReadmeMetricsAreExported(t *testing.T) {
	defined := map[string]bool{}
	for _, dir := range []string{"internal/httpapi", "internal/telemetry"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			ast.Inspect(pkg, func(n ast.Node) bool {
				vs, ok := n.(*ast.ValueSpec)
				if !ok {
					return true
				}
				for i, name := range vs.Names {
					if !name.IsExported() || !strings.HasPrefix(name.Name, "Metric") || i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if v, err := strconv.Unquote(lit.Value); err == nil {
							defined[v] = true
						}
					}
				}
				return true
			})
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`opass_[a-z_]+`).FindAllString(string(readme), -1)
	if len(names) == 0 {
		t.Fatal("README names no opass_* metric")
	}
	for _, name := range names {
		if !defined[name] {
			t.Errorf("README documents %s, which no exported Metric* constant of internal/httpapi or internal/telemetry defines", name)
		}
	}
}
