package bench

// The reachability gate: production code is what a main can reach. The test
// type-checks every non-test package of the module and walks the reference
// graph from the program roots; a package-level declaration it cannot reach
// must be deleted, moved into the _test.go that uses it, or listed with a
// reason in testdata/reach_allow.txt. The list may only shrink.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupport names the packages no production code imports: shared fixtures
// and harnesses for tests. The gate roots every declaration in them.
var testSupport = []string{"internal/chaos", "internal/ml/mltest"}

func TestReachability(t *testing.T) {
	dead, err := unreachable(".", testSupport)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := os.ReadFile("testdata/reach_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkAllow(dead, string(allow)) {
		t.Error(p)
	}
	t.Logf("%d unreachable declarations", len(dead))
}

// TestReachabilityRules drives the gate over the fixture module in
// testdata/reachfix, one rule per check.
func TestReachabilityRules(t *testing.T) {
	dead, err := unreachable("testdata/reachfix", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(dead, " ")
	// lib.Dead is called by nothing; deadHelper only by Dead.
	if want := "lib.Dead lib.deadHelper"; got != want {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
	for _, tc := range []struct {
		name, allow string
		problems    int
	}{
		{"complete", "lib.Dead unused API\nlib.deadHelper only Dead calls it\n", 0},
		{"missing", "lib.Dead unused API\n", 1},
		{"stale", "lib.Dead unused API\nlib.deadHelper only Dead calls it\nlib.Shape.String kept by fmt.Stringer\n", 1},
		{"no reason", "lib.Dead\nlib.deadHelper only Dead calls it\n", 1},
	} {
		if p := checkAllow(dead, tc.allow); len(p) != tc.problems {
			t.Errorf("%s: problems %q, want %d", tc.name, p, tc.problems)
		}
	}
}

// checkAllow compares the unreachable declarations with an allowlist of
// "<id> <reason>" lines ('#' starts a comment line) and returns one message
// per mismatch.
func checkAllow(dead []string, allow string) []string {
	isDead := map[string]bool{}
	for _, id := range dead {
		isDead[id] = true
	}
	var problems []string
	listed := map[string]bool{}
	for i, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s has no reason", i+1, id))
		}
		if !isDead[id] {
			problems = append(problems, fmt.Sprintf("allowlist line %d: %s is reachable or gone; delete the line", i+1, id))
		}
		listed[id] = true
	}
	for _, id := range dead {
		if !listed[id] {
			problems = append(problems, fmt.Sprintf("%s is unreachable from every main: delete it, move it into the test that uses it, or allow it with a reason", id))
		}
	}
	return problems
}

// reachPkg is one non-test package of the module.
type reachPkg struct {
	rel   string // directory relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachUnit is one package-level declaration: a func, a method, a type
// spec, or a var/const spec.
type reachUnit struct {
	id     string
	root   bool
	typ    *types.TypeName // set for non-alias type specs
	refs   []types.Object
	ifaces []*types.Interface // interface literals inside the declaration
}

// unreachable returns the ids ("<dir>.<Name>" or "<dir>.<Type>.<Method>") of
// the package-level declarations in the module at root that no program root
// reaches, sorted. The roots are main and init of every main package, every
// init and package-level var anywhere, and every declaration in the support
// packages. A method is live when its receiver type is live and the method is
// either referenced from live code or declared by an interface the type
// satisfies: a stdlib interface, or a module interface that live code names.
func unreachable(root string, support []string) ([]string, error) {
	modfile, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, line := range strings.Split(string(modfile), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			mod = f[1]
		}
	}
	fset := token.NewFileSet()
	pkgs := map[string]*reachPkg{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rp := &reachPkg{rel: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rp.files = append(rp.files, f)
		}
		pkgs[path.Join(mod, rp.rel)] = rp
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &reachImporter{pkgs: pkgs, fset: fset, std: importer.ForCompiler(fset, "source", nil)}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}

	// One unit per declaration, indexed by the objects it declares.
	var units []*reachUnit
	byObj := map[types.Object]*reachUnit{}
	for _, p := range paths {
		rp := pkgs[p]
		supported := false
		for _, s := range support {
			supported = supported || rp.rel == s || strings.HasPrefix(rp.rel, s+"/")
		}
		add := func(node ast.Node, id string, root bool, objs ...types.Object) *reachUnit {
			u := &reachUnit{id: rp.rel + "." + id, root: root || supported}
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if o := moduleObj(rp.info.Uses[n], pkgs); o != nil {
						u.refs = append(u.refs, o)
					}
				case *ast.InterfaceType:
					if it, ok := rp.info.Types[n].Type.(*types.Interface); ok {
						u.ifaces = append(u.ifaces, it)
					}
				}
				return true
			})
			for _, o := range objs {
				if o == nil {
					continue
				}
				byObj[o] = u
				// Implicitly typed constants in an iota group name their
				// type nowhere in their own syntax.
				if n, ok := o.Type().(*types.Named); ok {
					if to := moduleObj(n.Obj(), pkgs); to != nil {
						u.refs = append(u.refs, to)
					}
				}
			}
			units = append(units, u)
			return u
		}
		for _, f := range rp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := rp.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						root := d.Name.Name == "init" || (d.Name.Name == "main" && rp.types.Name() == "main")
						add(d, d.Name.Name, root, fn)
						continue
					}
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					add(d, recv.(*types.Named).Obj().Name()+"."+d.Name.Name, false, fn)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := rp.info.Defs[s.Name].(*types.TypeName)
							if u := add(s, s.Name.Name, false, tn); !tn.IsAlias() {
								u.typ = tn
							}
						case *ast.ValueSpec:
							var names []string
							var objs []types.Object
							for _, n := range s.Names {
								names = append(names, n.Name)
								objs = append(objs, rp.info.Defs[n])
							}
							add(s, strings.Join(names, ","), d.Tok == token.VAR, objs...)
						}
					}
				}
			}
		}
	}

	// Interfaces a module type can satisfy without the module naming the
	// method: error, and every named interface of the imported stdlib.
	byName := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if pkgs[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range paths {
		walk(pkgs[p].types)
	}

	live := map[*reachUnit]bool{}
	var queue []*reachUnit
	mark := func(u *reachUnit) {
		if u != nil && !live[u] {
			live[u] = true
			queue = append(queue, u)
		}
	}
	for _, u := range units {
		if u.root {
			mark(u)
		}
	}
	referenced := map[types.Object]bool{}
	satisfies := func(t types.Type, name string) bool {
		for _, it := range byName[name] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, o := range u.refs {
				if f, ok := o.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
					referenced[o] = true
				} else {
					mark(byObj[o])
				}
			}
			for _, it := range u.ifaces {
				addIface(it)
			}
		}
		// Methods of live types, promoted ones included, join once they
		// are referenced or satisfy an interface.
		for _, u := range units {
			if u.typ == nil || !live[u] {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(u.typ.Type()))
			for i := 0; i < ms.Len(); i++ {
				f := ms.At(i).Obj().(*types.Func).Origin()
				mu := byObj[f]
				if mu == nil || live[mu] {
					continue
				}
				if referenced[f] || satisfies(u.typ.Type(), f.Name()) {
					mark(mu)
				}
			}
		}
	}

	var dead []string
	for _, u := range units {
		if !live[u] {
			dead = append(dead, u.id)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// moduleObj returns o's generic origin when o is a package-level object or a
// method of a module package, nil otherwise.
func moduleObj(o types.Object, pkgs map[string]*reachPkg) types.Object {
	if o == nil || o.Pkg() == nil || pkgs[o.Pkg().Path()] == nil {
		return nil
	}
	if f, ok := o.(*types.Func); ok {
		f = f.Origin()
		if f.Type().(*types.Signature).Recv() != nil {
			return f
		}
		o = f
	}
	if o.Parent() != o.Pkg().Scope() {
		return nil
	}
	return o
}

// reachImporter type-checks module packages on demand and leaves the
// standard library to the source importer.
type reachImporter struct {
	pkgs map[string]*reachPkg
	fset *token.FileSet
	std  types.Importer
}

func (imp *reachImporter) Import(p string) (*types.Package, error) {
	rp := imp.pkgs[p]
	if rp == nil {
		return imp.std.Import(p)
	}
	if rp.types == nil {
		rp.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		var err error
		if rp.types, err = conf.Check(p, imp.fset, rp.files, rp.info); err != nil {
			return nil, err
		}
	}
	return rp.types, nil
}
