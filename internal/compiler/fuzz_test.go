package compiler

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Native fuzz targets for the two parser entry points: whatever the
// input, ParseMethod and ParseExpression return a tree or an error and
// never panic. Run one for longer with
//
//	go test ./internal/compiler -run '^$' -fuzz FuzzParseMethod -fuzztime 20s

// kernelChunks returns the chunks of the kernel source files: method
// bodies, class definitions and reader commands alike.
func kernelChunks(f *testing.F) []string {
	files, err := filepath.Glob("../image/st/*.st")
	if err != nil || len(files) == 0 {
		f.Fatalf("kernel sources: %v (%d files)", err, len(files))
	}
	var chunks []string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range strings.Split(string(src), "!") {
			if c = strings.TrimSpace(c); c != "" {
				chunks = append(chunks, c)
			}
		}
	}
	return chunks
}

// exampleStrings returns every string literal in the example programs,
// which includes each expression they evaluate.
func exampleStrings(f *testing.F) []string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		f.Fatalf("examples: %v (%d files)", err, len(files))
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// addSeeds seeds a fuzz target with the kernel chunks and the
// example strings.
func addSeeds(f *testing.F) {
	for _, s := range append(kernelChunks(f), exampleStrings(f)...) {
		f.Add(s)
	}
}

func FuzzParseMethod(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		ParseMethod(src)
	})
}

func FuzzParseExpression(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		ParseExpression(src)
	})
}
