package opass

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportSeams are the exported names under internal/ that no non-test code
// names but a test in another package uses as a seam or an oracle. Keys are
// import paths below opass/internal/, then the receiver type for a method.
var exportSeams = map[string]string{
	"dfs.FileSystem.Fsck":     "engine's chaos, core's redistribute and advisor's tests end on a fsck-clean ledger; the root TestBadInputs checks a failed store leaves one",
	"dfs.FileSystem.HostedBy": "engine's delta_replan_test reads which chunks a crashed node held",
	"dfs.RoundRobinPlacement": "core's and engine's tests build evenly placed fixtures with it",
	"simnet.Network.Run":      "cluster's tests and the root benchmarks drain a network without the engine loop",
	"simnet.Network.Scale":    "engine's chaos_test reads a resource's degradation multiplier mid-run",
	"plancache/plancachetest": "the in-process memcached that httpapi's remote-tier tests dial",

	"globalsched.Scheduler.Load": "experiments' TestJobMixInvariants checks the reconciled load equals the cluster's served profile",
}

// TestExportsHaveNonTestCallers holds the root facade and internal/ to one
// rule: an exported function, method or type stays only if non-test code
// (bench/, cmd/ and examples/ included) names it, it is a method that
// satisfies an interface, or exportSeams names the other package's test
// that needs it. Everything else is code that only its own tests call.
func TestExportsHaveNonTestCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs := loadModule(t)
	used := map[string]bool{}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		markUses(p, used)
		ifaces = append(ifaces, interfacesOf(p)...)
	}
	found := map[string]bool{}
	var unused []string
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.path, "opass/internal/")
		if !ok && p.path != "opass" {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			obj := p.types.Scope().Lookup(name)
			tn, isType := obj.(*types.TypeName)
			_, isFunc := obj.(*types.Func)
			if !obj.Exported() || (!isType && !isFunc) {
				continue
			}
			var keys []string
			if !used[objKey(obj)] {
				keys = append(keys, objKey(obj))
			}
			if isType {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						if m.Exported() && !used[objKey(m)] && !satisfiesInterface(named, m.Name(), ifaces) {
							keys = append(keys, objKey(m))
						}
					}
				}
			}
			for _, key := range keys {
				short := strings.TrimPrefix(key, "opass/internal/")
				if _, ok := exportSeams[short]; ok {
					found[short] = true
					continue
				}
				if _, ok := exportSeams[rel]; ok {
					found[rel] = true
					continue
				}
				unused = append(unused, short)
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported but no non-test code names it; delete it, or move it into a _test.go file if a test uses it as a reference", name)
	}
	for seam := range exportSeams {
		if !found[seam] {
			t.Errorf("exportSeams lists %s, which is gone or now has a non-test caller; drop the entry", seam)
		}
	}
}

type modulePkg struct {
	path   string
	module bool
	files  []*ast.File
	types  *types.Package
	info   *types.Info
}

// loadModule type-checks every package of the module from its non-test
// source, importing the standard library from the export data `go list`
// reports, so that objects compare by identity across the module.
func loadModule(t *testing.T) []*modulePkg {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var order []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var l listed
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[l.ImportPath] = l.Export
		order = append(order, l)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*modulePkg
	for _, l := range order {
		if l.Standard {
			continue
		}
		p := &modulePkg{path: l.ImportPath, module: true, info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		if p.types, err = conf.Check(l.ImportPath, fset, p.files, p.info); err != nil {
			t.Fatalf("type-check %s: %v", l.ImportPath, err)
		}
		checked[l.ImportPath] = p.types
		pkgs = append(pkgs, p)
	}
	// The standard packages the module imports directly contribute their
	// named interfaces, so that methods such as String or ServeHTTP count.
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, mod := checked[path]; mod {
					continue
				}
				if sp, err := std.Import(path); err == nil {
					pkgs = append(pkgs, &modulePkg{path: path, types: sp})
				}
			}
		}
	}
	return pkgs
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markUses records every module object that p's non-test source names,
// except a declaration naming itself: a method's receiver, a recursive call,
// a type that refers to itself.
func markUses(p *modulePkg, used map[string]bool) {
	mark := func(n ast.Node, self string, skip ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if n == skip {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil && objKey(obj) != self {
					used[objKey(obj)] = true
				}
			}
			return true
		})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				var recv ast.Node // a nil *ast.FieldList must not become a non-nil Node
				if d.Recv != nil {
					recv = d.Recv
				}
				mark(d, objKey(p.info.Defs[d.Name]), recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					self := ""
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = objKey(p.info.Defs[ts.Name])
					}
					mark(spec, self, nil)
				}
			}
		}
	}
}

// objKey names a function or type by import path, receiver type and name.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return fn.Pkg().Path() + ".(interface)." + fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interfacesOf lists the interfaces a method may satisfy: every interface
// type a module package writes, literals in type assertions included, and the
// exported named interfaces of an imported standard package.
func interfacesOf(p *modulePkg) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	if p.module {
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
		return out
	}
	for _, name := range p.types.Scope().Names() {
		if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
			add(tn.Type())
		}
	}
	return out
}

func satisfiesInterface(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == method
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
