// Command exportlint checks the module's public surface and its library
// against what the service links. Two rules:
//
//  1. Every exported func, method, type, var and const declared in non-test
//     code outside bench/ and package main must be referenced by a non-test
//     file of another package outside bench/. A name only its own package,
//     its tests or the benchmark use is surface nobody calls: unexport it or
//     delete it.
//  2. Every function and method declared in a non-test file of a library
//     package -- one outside cmd/, bench/ and scripts/ that is not package
//     main -- must be linked into cmd/dsn-audit. What only the experiments,
//     the benchmark or tests reach belongs under cmd/experiments or in a
//     _test.go file.
//
// Rule 1 parses the module with go/parser and type-checks every package
// from source with go/types, in import order; the standard library comes
// from the source importer. Three things count as a reference besides a use
// in another package:
//
//   - a method that implements an interface method, for an interface
//     declared in the module or in a package the module imports, or one of
//     the anonymous interfaces errors.Is, errors.As and errors.Unwrap probe
//     for (Error, String, ServeHTTP, Unwrap, Is, ...);
//   - a type named in the signature of a referenced func or method, in the
//     type of a referenced var or const, or in an exported field or an
//     embedded type of a referenced type.
//
// Struct fields and interface methods are out of scope. Directories with
// their own go.mod (bench/), testdata and hidden directories are skipped.
//
// Rule 2 builds cmd/dsn-audit with inlining off for the module's packages,
// so that every module function the binary calls keeps a symbol, and reads
// the symbol table with go tool nm. Closures, defer and go wrappers,
// method values and generic instances are read as the function that
// declares them. The linker keeps every method an interface call could
// reach, so the rule can miss dead code but never flags live code.
//
// The allowlist names what still breaks a rule, each entry under the
// ROADMAP item that gives it a caller, links it or removes it. An entry
// exempts its name from both rules and can only shrink: an allowlisted name
// that no rule flags any more, or that is no longer declared, fails the
// lint until its entry is deleted.
//
// Usage, from the module root:
//
//	go run ./scripts/exportlint [-root dir] [-allow file]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root (the directory holding go.mod)")
	allow := flag.String("allow", "scripts/exportlint/allowlist.txt", "allowlist, relative to -root")
	flag.Parse()

	r, err := lint(*root, filepath.Join(*root, *allow))
	if err != nil {
		fmt.Fprintln(os.Stderr, "exportlint:", err)
		os.Exit(2)
	}
	for _, p := range r.problems {
		fmt.Println("exportlint:", p)
	}
	if len(r.problems) > 0 {
		fmt.Printf("exportlint: FAIL (%d problems)\n", len(r.problems))
		os.Exit(1)
	}
	fmt.Printf("exportlint: PASS (%d exported names in %d packages checked; %d of %d library functions linked into %s; %d allowlisted)\n",
		r.checked, r.packages, r.linked, r.funcs, binary, r.allowlisted)
}

// report is the outcome of one lint run.
type report struct {
	problems    []string
	checked     int // exported names declared in linted packages
	packages    int // linted packages
	funcs       int // functions and methods declared in library packages
	linked      int // of those, how many the binary links
	allowlisted int
}

// finding is one name a rule flags, and the problem it is unless allowlisted.
type finding struct{ name, problem string }

// pkg is one type-checked package of the module.
type pkg struct {
	path  string // import path
	rel   string // import path relative to the module, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	dirs    map[string]string // import path → directory
	pkgs    map[string]*pkg
	loading map[string]bool
	std     types.Importer
}

func lint(root, allowPath string) (*report, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	link, err := startLink(root, l.modPath)
	if err != nil {
		return nil, err
	}
	defer link.close()
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}

	var all []*pkg
	for _, p := range paths {
		if q := l.pkgs[p]; q != nil {
			all = append(all, q)
		}
	}
	ifaces := l.interfaces(all)

	// Direct references: any object of a module package used by another.
	used := map[types.Object]bool{}
	for _, p := range all {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			if obj.Pkg() != nil && obj.Pkg() != p.types && l.pkgs[obj.Pkg().Path()] != nil {
				used[obj] = true
			}
		}
	}

	// The declared surface of every linted package. A method counts when
	// its type is exported or reached from outside; a method of a type no
	// other package can hold is not surface.
	type decl struct {
		name string // relative-path-qualified name
		obj  types.Object
		recv *types.TypeName // a method's type
	}
	var decls []decl
	var funcs []decl // every function and method of a library package, for rule 2
	r := &report{}
	for _, p := range all {
		if p.types.Name() == "main" {
			continue
		}
		r.packages++
		lib := isLibrary(p.rel)
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				decls = append(decls, decl{p.rel + "." + n, obj, nil})
			}
			if _, ok := obj.(*types.Func); ok && lib {
				funcs = append(funcs, decl{p.rel + "." + n, obj, nil})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				name := p.rel + "." + n + "." + m.Name()
				if lib {
					funcs = append(funcs, decl{name, m, tn})
				}
				if !m.Exported() {
					continue
				}
				decls = append(decls, decl{name, m, tn})
				if implements(named, m.Name(), ifaces) {
					used[m] = true
				}
			}
		}
	}

	// Close over types named by what is referenced.
	var work []types.Object
	for obj := range used {
		work = append(work, obj)
	}
	seen := map[types.Type]bool{}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		walkType(obj.Type(), seen, func(tn *types.TypeName) {
			tn = origin(tn).(*types.TypeName)
			if tn.Pkg() != nil && l.pkgs[tn.Pkg().Path()] != nil && !used[tn] {
				used[tn] = true
				work = append(work, tn)
			}
		})
	}

	// Rule 1: an exported name nothing outside its package calls.
	declared := map[string]bool{}
	var flagged []finding
	called := map[string]bool{} // exported names that rule 1 passes
	for _, d := range decls {
		if d.recv != nil && !d.recv.Exported() && !used[d.recv] {
			continue
		}
		declared[d.name] = true
		r.checked++
		if used[d.obj] {
			called[d.name] = true
		} else {
			flagged = append(flagged, finding{d.name, fmt.Sprintf("%s: %s is exported but no non-test code of another package outside bench/ references it",
				l.position(d.obj.Pos()), d.name)})
		}
	}

	// Rule 2: a function or method of a library package the binary does
	// not link.
	linked, err := link.wait(l.modPath)
	if err != nil {
		return nil, err
	}
	inLib := map[string]bool{}
	for _, f := range funcs {
		declared[f.name] = true
		inLib[f.name] = true
		r.funcs++
		if linked[f.name] {
			r.linked++
		} else {
			flagged = append(flagged, finding{f.name, fmt.Sprintf("%s: %s is declared in a library package but %s does not link it",
				l.position(f.obj.Pos()), f.name, binary)})
		}
	}

	// The allowlist exempts a name from both rules, and an entry stays only
	// while one of them flags its name.
	still := map[string]bool{}
	for _, f := range flagged {
		if _, ok := allow[f.name]; ok {
			still[f.name] = true
		} else {
			r.problems = append(r.problems, f.problem)
		}
	}
	names := make([]string, 0, len(allow))
	for n := range allow {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var now []string
		if called[n] {
			now = append(now, "now has a caller")
		}
		if inLib[n] {
			now = append(now, binary+" now links it")
		}
		switch {
		case !declared[n]:
			r.problems = append(r.problems, fmt.Sprintf("allowlisted %s is not declared any more: delete its allowlist entry", n))
		case !still[n]:
			r.problems = append(r.problems, fmt.Sprintf("%s is allowlisted but %s: delete its allowlist entry", n, strings.Join(now, " and ")))
		}
	}
	r.allowlisted = len(allow)
	return r, nil
}

// readAllowlist parses the allowlist: blank lines and #-comments are
// ignored, "[item]" opens the section of one ROADMAP item, and every other
// line is one qualified name (module-relative package path, a dot, the
// name, and for a method the type's name before it). A name outside a
// section, or listed twice, is an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	item := ""
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		switch {
		case text == "":
		case strings.HasPrefix(text, "[") && strings.HasSuffix(text, "]"):
			item = strings.TrimSpace(text[1 : len(text)-1])
		case item == "":
			return nil, fmt.Errorf("%s:%d: %s is not under an [item] section", path, line, text)
		case allow[text] != "":
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, line, text)
		default:
			allow[text] = item
		}
	}
	return allow, sc.Err()
}

func newLoader(root string) (*loader, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = strings.Trim(f[1], `"`)
		}
	}
	if modPath == "" {
		return nil, errors.New("go.mod declares no module")
	}
	// The source importer runs cgo for packages that use it; the pure-Go
	// fallbacks type-check the same API without a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		dirs:    map[string]string{},
		pkgs:    map[string]*pkg{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // another module, such as bench/
			}
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = dir
		return nil
	})
	return l, err
}

// load type-checks the package at import path, loading the module packages
// it imports first. It returns nil for a directory without Go files.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirs[path]
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
		l.pkgs[path] = nil // no package, or only tests
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, rel: strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")}
	if p.rel == "" {
		p.rel = "."
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp == l.modPath || strings.HasPrefix(imp, l.modPath+"/") {
			if _, ok := l.dirs[imp]; !ok {
				return nil, fmt.Errorf("%s imports %s, which is not in the module", path, imp)
			}
			q, err := l.load(imp)
			if err != nil {
				return nil, err
			}
			if q == nil {
				return nil, fmt.Errorf("%s imports %s, which has no Go files", path, imp)
			}
			return q.types, nil
		}
		return l.std.Import(imp)
	})}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces returns, by method name, every interface a method may
// implement: the named interfaces of the module's packages and of the
// packages they import, the error interface, and the anonymous interfaces
// the errors package probes for.
func (l *loader) interfaces(all []*pkg) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			n := it.Method(i).Name()
			byName[n] = append(byName[n], it)
		}
	}
	scopes := map[*types.Package]bool{}
	for _, p := range all {
		scopes[p.types] = true
		for _, imp := range p.types.Imports() {
			scopes[imp] = true
		}
	}
	for sp := range scopes {
		for _, n := range sp.Scope().Names() {
			tn, ok := sp.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if _, isParam := tn.Type().(*types.TypeParam); isParam {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !it.Empty() {
				add(it)
			}
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT.Underlying().(*types.Interface))
	anyT := types.Universe.Lookup("any").Type()
	probe := func(name string, params, results []types.Type) {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, t := range ts {
				vs[i] = types.NewVar(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	probe("Unwrap", nil, []types.Type{errT})
	probe("Unwrap", nil, []types.Type{types.NewSlice(errT)})
	probe("Is", []types.Type{errT}, []types.Type{types.Typ[types.Bool]})
	probe("As", []types.Type{anyT}, []types.Type{types.Typ[types.Bool]})
	return byName
}

// implements reports whether T or *T implements an interface that has a
// method named method.
func implements(t *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces[method] {
		if types.Implements(t, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// walkType calls visit for every named type that t names: its elements,
// signature, exported or embedded fields, and the methods of an interface.
func walkType(t types.Type, seen map[types.Type]bool, visit func(*types.TypeName)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		visit(t.Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			walkType(t.TypeArgs().At(i), seen, visit)
		}
		walkType(t.Underlying(), seen, visit)
	case *types.Pointer:
		walkType(t.Elem(), seen, visit)
	case *types.Slice:
		walkType(t.Elem(), seen, visit)
	case *types.Array:
		walkType(t.Elem(), seen, visit)
	case *types.Chan:
		walkType(t.Elem(), seen, visit)
	case *types.Map:
		walkType(t.Key(), seen, visit)
		walkType(t.Elem(), seen, visit)
	case *types.Signature:
		walkType(t.Params(), seen, visit)
		walkType(t.Results(), seen, visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkType(t.At(i).Type(), seen, visit)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				walkType(f.Type(), seen, visit)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumEmbeddeds(); i++ {
			walkType(t.EmbeddedType(i), seen, visit)
		}
		for i := 0; i < t.NumExplicitMethods(); i++ {
			walkType(t.ExplicitMethod(i).Type(), seen, visit)
		}
	}
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if named, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return named.Origin().Obj()
		}
	}
	return obj
}

func (l *loader) position(p token.Pos) string {
	pos := l.fset.Position(p)
	if rel, err := filepath.Rel(l.root, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
