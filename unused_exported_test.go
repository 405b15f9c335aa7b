//go:build tools

package fuse_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoUnusedExported is the dead-code census. It type-checks every
// non-test package of both modules (bench/ and the root it imports) from
// source in one go/types universe, the standard library from its export
// data, and lists the exported names under internal/ that no package
// uses. A method that lets its type satisfy an interface counts as used,
// and so does a name only package fuse uses: fuse is judged by its
// users. The names left over must be exactly those in
// testdata/unused-exported.txt, each a surface only tests reach:
//
//	go test -tags tools -run TestNoUnusedExported .
func TestNoUnusedExported(t *testing.T) {
	// From bench/, "fuse/..." is the root module; -deps prints a
	// package's dependencies before it.
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...", "fuse/...")
	cmd.Dir = "bench"
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	// Every interface spelled out in the checked code or declared at the
	// top level of a package it reaches: a method that satisfies one may
	// be called only through it.
	ifaces := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, tv := range info.Types {
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	for queue := slices.Collect(maps.Values(checked)); len(queue) > 0; queue = queue[1:] {
		if p := queue[0]; !seen[p] {
			seen[p] = true
			queue = append(queue, p.Imports()...)
			for _, name := range p.Scope().Names() {
				add(p.Scope().Lookup(name).Type())
			}
		}
	}
	satisfies := func(m *types.Func, recv types.Type) bool {
		for it := range ifaces {
			if sel, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); sel != nil &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
		return false
	}

	var unused []string
	for path, p := range checked {
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !strings.Contains(path, "/internal/") || !obj.Exported() {
				continue
			}
			if !used[obj] {
				unused = append(unused, path+"."+name)
			}
			if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj && !types.IsInterface(named) {
				for m := range named.Methods() {
					if m.Exported() && !used[m] && !satisfies(m, named) {
						unused = append(unused, path+"."+name+"."+m.Name())
					}
				}
			}
		}
	}

	data, err := os.ReadFile(filepath.Join("testdata", "unused-exported.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			allowed[line] = true
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if !allowed[name] {
			t.Errorf("%s is exported and nothing uses it: delete it, or unexport it", name)
		}
		delete(allowed, name)
	}
	for name := range allowed {
		t.Errorf("%s is in testdata/unused-exported.txt but is used or gone: drop the line", name)
	}
	t.Logf("%d unused exported names", len(unused))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
