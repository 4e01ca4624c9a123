// Command metriclint enforces the repository's metric naming convention:
// every obs instrument registered with a literal name — Counter, Gauge,
// Histogram, and their Vec variants — must match ^sky_[a-z0-9_]+$, so the
// exposition stays one coherent, grep-able namespace. It walks the module's
// Go sources (skipping tests, where throwaway names are fine) with
// go/parser and exits 1 listing every violation.
//
// Run with: go run ./cmd/metriclint
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// registerFuncs are the obs.Registry methods whose first argument is a
// metric name.
var registerFuncs = map[string]bool{
	"Counter":      true,
	"CounterVec":   true,
	"Gauge":        true,
	"GaugeVec":     true,
	"Histogram":    true,
	"HistogramVec": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	violations := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, 0)
		if perr != nil {
			return perr
		}
		// The obs package itself registers nothing with literal sky_ names in
		// its own API bodies, but skip it anyway: its doc examples and panics
		// mention names that are not registrations.
		if f.Name.Name == "obs" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registerFuncs[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, uerr := strconv.Unquote(lit.Value)
			if uerr != nil {
				return true
			}
			if !obs.ValidName(name) {
				fmt.Fprintf(os.Stderr, "%s: metric name %q does not match ^sky_[a-z0-9_]+$\n",
					fset.Position(lit.Pos()), name)
				violations++
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(2)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violation(s)\n", violations)
		os.Exit(1)
	}
	fmt.Println("metriclint: all metric names ok")
}
