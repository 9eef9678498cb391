package aqp

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the internal/ declarations that no program reaches
// but that stay, each with the reason.
var reachAllowlist = map[string]string{
	"internal/server.(*Server).Metrics":            "test probe: server tests read the metrics registry",
	"internal/server.(*Server).Admission":          "test probe: admission tests read the controller",
	"internal/server.(*Server).Auditor":            "test probe: audit e2e tests drain the auditor",
	"internal/server.(*Server).WorkloadRegistry":   "test probe: workload tests drive the registry",
	"internal/insight.(*Registry).Evictions":       "test probe: insight tests check the LRU cap",
	"internal/insight.(*Registry).Regressions":     "test probe: sentinel tests read the trips",
	"internal/exec.(*Result).ColumnIndex":          "test probe: exec tests find a column by name",
	"internal/trace.(*Span).SpanID":                "test probe: trace tests check parent links",
	"internal/trace.(*Profile).Attr":               "test probe: profile tests read span attributes",
	"internal/trace.(*Profile).FindAll":            "test probe: profile tests collect spans by name",
	"internal/trace.(*Profile).Lines":              "test probe: render tests compare the tree",
	"internal/trace.(*Profile).SortChildrenByName": "test probe: render tests fix child order",
	"internal/telemetry.(*SLO).Objectives":         "test probe: SLO tests list the objectives",
	"internal/stats.(*HTEstimator).Count":          "test probe: estimator tests read the count",
	"internal/storage.(*Float64Column).Float":      "test probe: storage tests read one cell",
	"internal/sample.(*Distinct).Decide":           "reference: TestDistinctKeepRowsIsDecide and the exec oracle compare KeepRows with it",
	"internal/sample.(*StratifiedResult).Fraction": "test probe: stratified tests read the realised rate",
	"internal/stats.Stratum":                       "reference: TestMergeIsStratifiedComposition compares the shard merge with it",
	"internal/stats.CombineTotals":                 "reference: TestMergeIsStratifiedComposition compares the shard merge with it",
	"internal/stats.StratifiedTotalVariance":       "reference: the contract's Neyman test compares its allocation with it",
	"internal/expr.OpInvalid":                      "the zero Op, so an unset operator is invalid",
}

// reachInterfaceMethods are method names that a standard-library interface
// can call on a value of a reached type without naming the method.
var reachInterfaceMethods = []string{
	"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop",
	"Write", "WriteHeader", "Header", "MarshalJSON", "UnmarshalJSON",
	"Set", "Read", "Close", "Is",
}

// TestInternalDeclarationsReachable fails on every declaration under
// internal/ that no program runs. The programs are the main packages
// (cmd/, examples/), the benchmark harness (bench/, a module of its own)
// and the exported API of package aqp; every init and package-level var
// runs too. From them the test follows identifier uses to a fixpoint. A
// method of a reached type counts as reached when an interface may call it:
// its name is a method of an interface declared in the module or one of
// reachInterfaceMethods.
func TestInternalDeclarationsReachable(t *testing.T) {
	rep, err := reachResult()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reach: %d unreached outside the allowlist, %d allowlisted", len(rep.unreached), rep.allowlisted)
	for _, name := range rep.unreached {
		t.Errorf("%s: no program reaches it; delete it, or allowlist it with a reason", name)
	}
	for _, name := range rep.stale {
		t.Errorf("allowlist entry %s is reached or gone; drop it", name)
	}
}

// reachReport is what the walk finds: the unreached internal/ declarations
// outside the allowlist, how many are on it, and the allowlist entries
// that are reached or gone.
type reachReport struct {
	unreached   []string
	allowlisted int
	stale       []string
}

// reachResult walks the module once per test process; the size row reads
// it too.
var reachResult = sync.OnceValues(walkReach)

func walkReach() (reachReport, error) {
	var rep reachReport
	l := &reachLoader{
		fset:  token.NewFileSet(),
		files: map[string][]string{},
		pkgs:  map[string]*reachPkg{},
		std:   importer.Default(),
	}
	if err := l.scan("."); err != nil {
		return rep, err
	}
	paths := make([]string, 0, len(l.files))
	for path := range l.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return rep, err
		}
	}

	decls := map[types.Object]ast.Node{}
	ifaceNames := map[string]bool{}
	for _, name := range reachInterfaceMethods {
		ifaceNames[name] = true
	}
	var roots []ast.Node // init bodies and var specs: they run though nothing names them
	r := &reachWalk{
		decls:      decls,
		reached:    map[types.Object]bool{},
		ifaceNames: ifaceNames,
		uses:       map[*ast.Ident]types.Object{},
		sels:       map[*ast.SelectorExpr]*types.Selection{},
	}
	for _, path := range paths {
		p := l.pkgs[path]
		program := p.types.Name() == "main" || path == "repro/bench"
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, d)
						continue
					}
					decls[obj] = d
					if program || (path == "repro" && obj.Exported()) {
						r.roots = append(r.roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							decls[obj] = s
							if program || (path == "repro" && obj.Exported()) {
								r.roots = append(r.roots, obj)
							}
							if it, ok := obj.Type().Underlying().(*types.Interface); ok {
								for i := 0; i < it.NumMethods(); i++ {
									ifaceNames[it.Method(i).Name()] = true
								}
							}
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots = append(roots, s)
							}
							for _, id := range s.Names {
								if obj := p.info.Defs[id]; obj != nil && id.Name != "_" {
									decls[obj] = s
									if program || d.Tok == token.VAR || (path == "repro" && obj.Exported()) {
										r.roots = append(r.roots, obj)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			r.uses[id] = obj
		}
		for sel, s := range p.info.Selections {
			r.sels[sel] = s
		}
	}
	for _, n := range roots {
		r.walk(n)
	}
	for _, obj := range r.roots {
		r.mark(obj)
	}
	r.drain()

	seen := map[string]bool{}
	for obj := range decls {
		if r.reached[obj] || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
			continue
		}
		name := reachName(obj)
		seen[name] = true
		if _, ok := reachAllowlist[name]; ok {
			rep.allowlisted++
			continue
		}
		rep.unreached = append(rep.unreached, name)
	}
	sort.Strings(rep.unreached)
	for name := range reachAllowlist {
		if !seen[name] {
			rep.stale = append(rep.stale, name)
		}
	}
	sort.Strings(rep.stale)
	return rep, nil
}

type reachPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachLoader type-checks the module's packages and bench/'s from source,
// one package object per import path, and the standard library from
// export data.
type reachLoader struct {
	fset  *token.FileSet
	files map[string][]string // import path → its non-test Go files
	pkgs  map[string]*reachPkg
	std   types.Importer
}

// scan records the non-test Go files of every package under root that
// build on this platform.
func (l *reachLoader) scan(root string) error {
	return filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		names, err := l.goFiles(dir)
		if err != nil || len(names) == 0 {
			return err
		}
		path := "repro"
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		l.files[path] = names
		return nil
	})
}

// goFiles lists the paths of dir's non-test Go files that build on this
// platform.
func (l *reachLoader) goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, filepath.Join(dir, name))
		}
	}
	return names, nil
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.files[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p := &reachPkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range l.files[path] {
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	var err error
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// reachWalk marks declarations reached from the roots.
type reachWalk struct {
	decls      map[types.Object]ast.Node
	reached    map[types.Object]bool
	ifaceNames map[string]bool
	uses       map[*ast.Ident]types.Object
	sels       map[*ast.SelectorExpr]*types.Selection
	roots      []types.Object
	queue      []types.Object
}

func (r *reachWalk) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

func (r *reachWalk) drain() {
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if n, ok := r.decls[obj]; ok {
			r.walk(n)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); r.ifaceNames[m.Name()] {
						r.mark(m)
					}
				}
			}
		}
	}
}

// walk marks every object an identifier or selector inside n refers to.
func (r *reachWalk) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := r.uses[n]; obj != nil {
				r.mark(obj)
			}
		case *ast.SelectorExpr:
			if sel := r.sels[n]; sel != nil {
				r.mark(sel.Obj())
			}
		}
		return true
	})
}

// reachName spells obj as pkg.Name, pkg.(*T).M or pkg.T.M, with pkg the
// import path below the module.
func reachName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "repro/")
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t, ptr := recv.Type(), false
			if p, ok := t.(*types.Pointer); ok {
				t, ptr = p.Elem(), true
			}
			name := t.(*types.Named).Obj().Name()
			if ptr {
				return fmt.Sprintf("%s.(*%s).%s", pkg, name, f.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, name, f.Name())
		}
	}
	return pkg + "." + obj.Name()
}
