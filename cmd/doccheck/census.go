package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// keep lists the exported identifiers under internal/ that no non-test
// file uses yet but that stay, each with the ROADMAP item that gives it a
// consumer. Keys are "<import path>.<name>", "<import path>.<type>.<member>"
// or a bare import path, which keeps everything the package declares. A
// kept type keeps its methods and fields.
var keep = map[string]string{
	"streammine/internal/wal.SegmentStore.Prune": "ROADMAP items 4(iii) and 14",
	"streammine/internal/storage.FaultyDisk":     "ROADMAP item 5(b)",
	"streammine/internal/storage.NewFaultyDisk":  "ROADMAP item 5(b)",
	"streammine/internal/metricstest":            "test support, ROADMAP item 12",
}

// sleepless is the import-path suffix of the packages whose non-test files
// must not use time.Sleep: the engine waits on the events it is told of,
// never on a timer.
const sleepless = "/internal/core"

// listedPackage is the part of `go list -json` the census reads.
type listedPackage struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
	Standard    bool
}

// declared is one exported identifier under internal/ and the key the
// keep-list names it by.
type declared struct {
	obj   types.Object
	key   string
	owner string // keep key of the type a method or field belongs to
}

// census type-checks the non-test files of every package of the module at
// root and reports each exported function, method, type, variable,
// constant and field declared under internal/ that no non-test file uses,
// and each field of an exported *Options struct there that no non-test
// file outside its package writes (markWrites), unless keep lists it. An
// instantiation counts for its generic origin; a method counts when a used
// type has it, declared or promoted, and implements an interface of the
// module or the standard library that has the method. The test files of
// the directories BENCHMARK.json lists count too: the benchmark's files do
// not change with the code they measure. It also reports each constant
// series name a non-test file registers that no docs/*.md names, and each
// docs/*.md series row whose series no non-test file registers
// (staleSeriesRows), and each use of time.Sleep in a non-test file of the
// engine (sleepless).
func census(root string, keep map[string]string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	frozen, err := benchmarkDirs(root)
	if err != nil {
		return nil, err
	}
	docs := docWords(root)
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,TestGoFiles,Standard", "./...")
	cmd.Dir, cmd.Stderr = root, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	// The standard library is read from source; cgo would need a C
	// toolchain, and the pure-Go files carry the same declarations.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := moduleImporter{std: importer.ForCompiler(fset, "source", nil), mod: map[string]*types.Package{}}

	used, written, registered := map[types.Object]bool{}, map[types.Object]bool{}, map[string]bool{}
	var decls []declared
	var problems []string
	report := func(at token.Pos, format string, args ...any) {
		pos := fset.Position(at)
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		problems = append(problems, fmt.Sprintf("%s:%d: ", pos.Filename, pos.Line)+fmt.Sprintf(format, args...))
	}
	var pkgs []*types.Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		names := lp.GoFiles
		for _, dir := range frozen {
			if lp.Dir == dir || strings.HasPrefix(lp.Dir, dir+string(filepath.Separator)) {
				names = append(names, lp.TestGoFiles...)
			}
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
		}
		imp.mod[lp.ImportPath] = pkg
		pkgs = append(pkgs, pkg)
		internal := strings.Contains("/"+lp.ImportPath+"/", "/internal/")
		for i, f := range files {
			for _, d := range f.Decls {
				self := markUses(d, info, used)
				if internal {
					decls = append(decls, declsOf(d, info, lp.ImportPath, self)...)
				}
			}
			markWrites(f, info, lp.ImportPath, written)
			if !strings.HasSuffix(names[i], "_test.go") && strings.HasSuffix(lp.ImportPath, sleepless) {
				sleeps(f, info, func(at token.Pos) {
					report(at, "time.Sleep in the engine: wait on the event that ends the wait, not on a timer")
				})
			}
			if !strings.HasSuffix(names[i], "_test.go") {
				registeredSeries(f, info, func(name string, at token.Pos) {
					registered[name] = true
					if !docs[name] {
						report(at, "series %s is registered but no docs/*.md names it", name)
					}
				})
			}
		}
	}

	listed := func(keys ...string) bool {
		for _, k := range keys {
			if _, ok := keep[k]; ok {
				return true
			}
		}
		return false
	}
	var usedTypes []*types.Named
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !used[tn] && !listed(p.Path()+"."+name) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				usedTypes = append(usedTypes, n)
			}
		}
	}
	byMethod := interfacesByMethod(pkgs)
	for _, d := range decls {
		pkg := d.obj.Pkg()
		if listed(d.key, d.owner, pkg.Path()) {
			continue
		}
		name := pkg.Name() + strings.TrimPrefix(d.key, pkg.Path())
		if !used[d.obj] && !satisfiesInterface(d.obj, usedTypes, byMethod) {
			report(d.obj.Pos(), "%s has no non-test user (delete it, or keep-list it in cmd/doccheck with the ROADMAP item that gives it one)", name)
		} else if strings.HasSuffix(d.owner, "Options") && !written[d.obj] {
			report(d.obj.Pos(), "option %s is set by no non-test file outside its package (make it a constant, or keep-list it in cmd/doccheck with the ROADMAP item that will set it)", name)
		}
	}
	problems = append(problems, staleSeriesRows(root, registered)...)
	sort.Strings(problems)
	return problems, nil
}

// sleeps reports each use of time.Sleep in f, called or not.
func sleeps(f *ast.File, info *types.Info, report func(at token.Pos)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				report(sel.Pos())
			}
		}
		return true
	})
}

// seriesRow matches a docs table row that documents a series: a backticked
// series name, labels optional, in the first cell and its kind in the
// second.
var seriesRow = regexp.MustCompile("^\\|\\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\\{[^}`]*\\})?`\\s*\\|\\s*(?:counter|gauge|histogram)")

// staleSeriesRows reports each series row of the docs/*.md files under
// root whose series is not in registered — a row left behind by a series
// that went.
func staleSeriesRows(root string, registered map[string]bool) []string {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	var problems []string
	for _, name := range files {
		data, _ := os.ReadFile(name)
		for i, line := range strings.Split(string(data), "\n") {
			if m := seriesRow.FindStringSubmatch(line); m != nil && !registered[m[1]] {
				rel, _ := filepath.Rel(root, name)
				problems = append(problems, fmt.Sprintf("%s:%d: series %s has a row but no non-test file registers it", rel, i+1, m[1]))
			}
		}
	}
	return problems
}

// markWrites records every struct field that f writes from outside the
// field's own package: as a composite-literal key, an assignment target or
// the operand of &x.F.
func markWrites(f *ast.File, info *types.Info, path string, written map[types.Object]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			targets = []ast.Expr{n.Key}
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				targets = []ast.Expr{n.X}
			}
		}
		for _, e := range targets {
			id, _ := ast.Unparen(e).(*ast.Ident)
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				id = sel.Sel
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != path {
				written[origin(v)] = true
			}
		}
		return true
	})
}

// registeredSeries calls report for each constant series name f passes to
// a registration method of a metrics package's Registry: a method whose
// first parameter is name string.
func registeredSeries(f *ast.File, info *types.Info, report func(name string, at token.Pos)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		recv, v := receiverNamed(fn), info.Types[call.Args[0]].Value
		if recv != nil && recv.Obj().Name() == "Registry" && recv.Obj().Pkg().Name() == "metrics" &&
			fn.Type().(*types.Signature).Params().At(0).Name() == "name" && v != nil && v.Kind() == constant.String {
			report(constant.StringVal(v), call.Args[0].Pos())
		}
		return true
	})
}

// docWords returns the words (runs of letters, digits and underscores) of
// the docs/*.md files under root; a file it cannot read names nothing.
func docWords(root string) map[string]bool {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	words, word := map[string]bool{}, regexp.MustCompile(`\w+`)
	for _, name := range files {
		data, _ := os.ReadFile(name)
		for _, w := range word.FindAllString(string(data), -1) {
			words[w] = true
		}
	}
	return words
}

// moduleImporter hands out the module's packages as the census checks them
// and reads every other import from the standard library's source.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (im moduleImporter) Import(path string) (*types.Package, error) {
	if p := im.mod[path]; p != nil {
		return p, nil
	}
	return im.std.Import(path)
}

// origin maps an instantiated object to the generic declaration it came
// from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok {
			return n.Origin().Obj()
		}
	}
	return obj
}

// markUses records every object the top-level declaration d uses, except a
// type's uses of itself in its own declaration and methods and a
// function's uses of itself, and returns that self object (nil for
// variables and constants).
func markUses(d ast.Decl, info *types.Info, used map[types.Object]bool) types.Object {
	var self types.Object
	switch d := d.(type) {
	case *ast.FuncDecl:
		self = info.Defs[d.Name]
		if d.Recv != nil {
			if n := receiverNamed(self); n != nil {
				self = n.Obj()
			}
		}
	case *ast.GenDecl:
		if len(d.Specs) == 1 {
			if ts, ok := d.Specs[0].(*ast.TypeSpec); ok {
				self = info.Defs[ts.Name]
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if obj = origin(obj); obj != self {
					used[obj] = true
				}
			}
		}
		return true
	})
	return self
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// declsOf lists the exported identifiers the top-level declaration d
// declares: functions, methods (of any type), types, package variables and
// constants, and the named fields of exported struct types. Interface
// methods are left out: their users are the implementations.
func declsOf(d ast.Decl, info *types.Info, path string, self types.Object) []declared {
	var out []declared
	add := func(id *ast.Ident, owner string) {
		obj := info.Defs[id]
		if obj == nil || !obj.Exported() {
			return
		}
		key := path + "." + obj.Name()
		if owner != "" {
			key = owner + "." + obj.Name()
		}
		out = append(out, declared{obj: obj, key: key, owner: owner})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		owner := ""
		if d.Recv != nil && self != nil {
			owner = path + "." + self.Name()
		}
		add(d.Name, owner)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, "")
				}
			case *ast.TypeSpec:
				add(s.Name, "")
				st, ok := s.Type.(*ast.StructType)
				if !ok || !s.Name.IsExported() {
					continue
				}
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						add(id, path+"."+s.Name.Name)
					}
				}
			}
		}
	}
	return out
}

// interfacesByMethod indexes, by method name, error and every non-generic
// package-level interface of the module and of the standard library
// packages it reaches.
func interfacesByMethod(pkgs []*types.Package) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addType := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addType(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	addType(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		walk(p)
	}
	return byMethod
}

// satisfiesInterface reports whether obj is a method that one of the used
// types has, declared or promoted from an embedded field, while the type
// implements, by value or pointer, an interface that has the method.
func satisfiesInterface(obj types.Object, usedTypes []*types.Named, byMethod map[string][]*types.Interface) bool {
	if receiverNamed(obj) == nil {
		return false
	}
	for _, n := range usedTypes {
		ptr := types.NewPointer(n)
		if m, _, _ := types.LookupFieldOrMethod(ptr, false, obj.Pkg(), obj.Name()); m == nil || origin(m) != obj {
			continue
		}
		for _, it := range byMethod[obj.Name()] {
			if types.Implements(n, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// benchmarkDirs returns the directories root's BENCHMARK.json lists as its
// paths; none when there is no such file.
func benchmarkDirs(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var spec struct{ Paths []string }
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dirs := make([]string, len(spec.Paths))
	for i, p := range spec.Paths {
		dirs[i] = filepath.Join(root, p)
	}
	return dirs, nil
}
