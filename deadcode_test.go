package unclean_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the non-test code that only tests may reach, one
// entry per line: a package directory, a file, or a package directory and a
// declaration ("internal/ipset.Set.Sample"), relative to the module root.
// A harness is test code that other packages' tests import, so what only a
// harness reaches is test-only too; what kept code uses counts as reached.
var testOnlyAllowlist = []allowed{
	{"internal/faults", "test harness: fault-injecting conns, files and clocks", true},
	{"internal/simnet/advfeeds.go", "test harness: adversarial feeds for the feed mesh's tests", true},
	{"internal/ipset.FromAddrs", "test harness: only advfeeds.go builds sets from address slices", false},
	{"internal/nac", "ablation: network-aware clusters, awaiting a claim in experiments", false},
	{"internal/scandetect/trw.go", "ablation: the TRW scan detector, awaiting a claim in experiments", false},
	{"internal/netflow.SampleRecords", "ablation: 1-in-N packet sampling, awaiting a claim in experiments", false},
	{"internal/simnet.World.SynthesizeFlows", "reference: the fold tests hold simnet.Fold and experiments.Build to it", false},
	{"internal/ipset.Set.Sample", "reference: the sampling tests and benchmarks draw single subsets with it", false},
	{"internal/ipset.MustParse", "fixture: many packages' tests build sets from it", false},
	{"internal/ipset.FromUint32s", "fixture: many packages' tests build sets from it", false},
	{"internal/obs.WindowedHistogram.Clock", "fake clock: tests substitute one", false},
	{"internal/obs/flight.Recorder.Clock", "fake clock: tests substitute one", false},
	{"internal/obs/prof.Profiler.Clock", "fake clock: tests substitute one", false},
	{"internal/dnsbl.Server.SetFlightRecorder", "fake recorder: tests substitute one", false},
	{"internal/simnet.World.BotsActive", "ground truth of the synthetic world", false},
	{"internal/simnet.World.Campaigns", "ground truth of the synthetic world", false},
	{"internal/simnet.World.CampaignsBetween", "ground truth of the synthetic world", false},
	{"internal/simnet.World.Days", "ground truth of the synthetic world", false},
	{"internal/netmodel.Model.InObserved", "ground truth of the synthetic world", false},
	{"internal/netmodel.Network.Contains", "ground truth of the synthetic world", false},
	{"internal/netmodel.Network.Block", "ground truth of the synthetic world", false},
	{"internal/experiments.Figure1Result.PeakBotFraction", "Figure 1's shape check, a claim for the paper oracle", false},
}

type allowed struct {
	entry, reason string
	harness       bool
}

// TestNoTestOnlyCode fails for each package-level function, method or type of
// this module that no non-test file reaches. It type-checks the module's
// non-test files for the host platform, and every file of benchmark/ (tests
// included) as callers. Reachability starts from package-level variables,
// init and main functions and the benchmark module, and follows the uses in
// each reached declaration. Methods that satisfy an interface are exempt and
// count as reached with their type. Constants and variables are out of scope.
func TestNoTestOnlyCode(t *testing.T) {
	s := newDeadcodeScan(t)
	s.walk(s.roots)
	matched := map[string]bool{}
	var kept []types.Object
	for _, d := range s.decls {
		if a := allowlisted(d); a != nil && !a.harness && !s.reached[d.obj] {
			matched[a.entry] = true
			kept = append(kept, d.obj)
		}
	}
	s.walk(kept)
	var lines []string
	for _, d := range s.decls {
		if s.reached[d.obj] || s.exempt[d.obj] {
			continue
		}
		if a := allowlisted(d); a != nil {
			matched[a.entry] = true
			continue
		}
		lines = append(lines, fmt.Sprintf("%s:%d: %s is reached only from tests", d.file, d.line, d.name))
	}
	sort.Strings(lines)
	for _, l := range lines {
		t.Error(l)
	}
	for _, a := range testOnlyAllowlist {
		if !matched[a.entry] {
			t.Errorf("allowlist entry %s matches no test-only declaration; remove it", a.entry)
		}
	}
}

func allowlisted(d deadcodeDecl) *allowed {
	for i, a := range testOnlyAllowlist {
		if a.entry == d.dir || a.entry == d.file || a.entry == d.dir+"."+d.name {
			return &testOnlyAllowlist[i]
		}
	}
	return nil
}

type listedPackage struct {
	Dir, ImportPath, Name, Export string
	GoFiles, TestGoFiles          []string
}

type deadcodeDecl struct {
	obj        types.Object
	dir, file  string // relative to the module root
	line       int
	name       string // "F", "T" or "T.M"
	methodRecv *types.Named
}

type deadcodeScan struct {
	t       *testing.T
	root    string
	fset    *token.FileSet
	info    *types.Info
	module  map[string]*listedPackage // the root module's packages
	checked map[string]*types.Package
	std     types.ImporterFrom
	decls   []deadcodeDecl
	edges   map[types.Object][]types.Object // declaration → what it uses
	roots   []types.Object
	reached map[types.Object]bool
	exempt  map[types.Object]bool
}

func newDeadcodeScan(t *testing.T) *deadcodeScan {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := &deadcodeScan{
		t:    t,
		root: root,
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		module:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		edges:   map[types.Object][]types.Object{},
		reached: map[types.Object]bool{},
		exempt:  map[types.Object]bool{},
	}
	for _, p := range s.goList(root, "./...") {
		s.module[p.ImportPath] = p
	}
	bench := s.goList(filepath.Join(root, "benchmark"), "./...")

	// Export data for every standard-library package either module imports,
	// from one go list call.
	stdImports := map[string]bool{}
	benchFiles := map[string][]*ast.File{}
	parsed := map[string][]*ast.File{}
	for path, p := range s.module {
		parsed[path] = s.parse(p.Dir, p.GoFiles)
	}
	for _, p := range bench {
		benchFiles[p.ImportPath] = s.parse(p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
	}
	for _, files := range [](map[string][]*ast.File){parsed, benchFiles} {
		for _, fs := range files {
			for _, f := range fs {
				for _, imp := range f.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if s.module[path] == nil && path != "C" && path != "unsafe" {
						stdImports[path] = true
					}
				}
			}
		}
	}
	exports := map[string]string{}
	var args []string
	for path := range stdImports {
		args = append(args, path)
	}
	sort.Strings(args)
	for _, p := range s.goList(root, append([]string{"-deps", "-export"}, args...)...) {
		exports[p.ImportPath] = p.Export
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}).(types.ImporterFrom)

	paths := make([]string, 0, len(s.module))
	for path := range s.module {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		s.check(path, parsed)
	}
	for _, path := range paths {
		p := s.module[path]
		for _, f := range parsed[path] {
			s.collect(p, f)
		}
	}
	for path, files := range benchFiles {
		s.typeCheck(path, files)
		for _, f := range files {
			s.usesIn(f, nil)
		}
	}
	s.markExempt()
	return s
}

// goList runs go list -json in dir and decodes its stream of packages.
func (s *deadcodeScan) goList(dir string, args ...string) []*listedPackage {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	cmd := exec.Command(goCmd, append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		s.t.Fatalf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			s.t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func (s *deadcodeScan) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// check type-checks a module package after the module packages it imports.
func (s *deadcodeScan) check(path string, parsed map[string][]*ast.File) *types.Package {
	if pkg := s.checked[path]; pkg != nil {
		return pkg
	}
	for _, f := range parsed[path] {
		for _, imp := range f.Imports {
			if dep := strings.Trim(imp.Path.Value, `"`); s.module[dep] != nil {
				s.check(dep, parsed)
			}
		}
	}
	return s.typeCheck(path, parsed[path])
}

func (s *deadcodeScan) typeCheck(path string, files []*ast.File) *types.Package {
	conf := types.Config{
		Importer: deadcodeImporter{s},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		s.t.Fatalf("type-checking %s: %v", path, err)
	}
	s.checked[path] = pkg
	return pkg
}

type deadcodeImporter struct{ s *deadcodeScan }

func (imp deadcodeImporter) Import(path string) (*types.Package, error) {
	if pkg := imp.s.checked[path]; pkg != nil {
		return pkg, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return imp.s.std.ImportFrom(path, imp.s.root, 0)
}

// collect records one module file's package-level functions, methods and
// types, and the uses inside each.
func (s *deadcodeScan) collect(p *listedPackage, f *ast.File) {
	pos := s.fset.Position(f.Pos())
	file, err := filepath.Rel(s.root, pos.Filename)
	if err != nil {
		s.t.Fatal(err)
	}
	file = filepath.ToSlash(file)
	dir := path.Dir(file)
	add := func(obj types.Object, name string, recv *types.Named, node ast.Node) {
		s.decls = append(s.decls, deadcodeDecl{
			obj: obj, dir: dir, file: file, line: s.fset.Position(obj.Pos()).Line,
			name: name, methodRecv: recv,
		})
		s.usesIn(node, obj)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj := s.info.Defs[d.Name].(*types.Func)
			if d.Recv == nil && (d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main")) {
				s.usesIn(d, nil)
				continue
			}
			if d.Recv == nil {
				add(obj, d.Name.Name, nil, d)
				continue
			}
			recv := obj.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named := recv.(*types.Named)
			add(obj, named.Obj().Name()+"."+d.Name.Name, named, d)
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				s.usesIn(d, nil)
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				add(s.info.Defs[ts.Name], ts.Name.Name, nil, ts)
			}
		}
	}
}

// usesIn records every object node uses as reached from from, or as a root
// when from is nil. A declaration's uses of itself do not count.
func (s *deadcodeScan) usesIn(node ast.Node, from types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj == from {
			return true
		}
		if from == nil {
			s.roots = append(s.roots, obj)
		} else {
			s.edges[from] = append(s.edges[from], obj)
		}
		return true
	})
}

// errorsInterfaces are the anonymous interfaces package errors asserts an
// error to.
const errorsInterfaces = `package errorsifaces

type (
	wrapper      interface{ Unwrap() error }
	multiWrapper interface{ Unwrap() []error }
	iser         interface{ Is(error) bool }
	aser         interface{ As(any) bool }
)
`

// markExempt exempts each method that satisfies error, an interface declared
// in or imported by either module, one written inline in their code, or one
// of errorsInterfaces; the method is reached with its receiver type.
func (s *deadcodeScan) markExempt() {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	f, err := parser.ParseFile(s.fset, "errorsifaces.go", errorsInterfaces, 0)
	if err != nil {
		s.t.Fatal(err)
	}
	errs, err := new(types.Config).Check("errorsifaces", s.fset, []*ast.File{f}, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	visit(errs)
	for _, pkg := range s.checked {
		visit(pkg)
	}
	for _, tv := range s.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	for _, d := range s.decls {
		if d.methodRecv == nil {
			continue
		}
		for _, it := range ifaces {
			if satisfies(d.methodRecv, d.obj.Name(), it) {
				s.exempt[d.obj] = true
				recv := d.methodRecv.Obj()
				s.edges[recv] = append(s.edges[recv], d.obj)
				break
			}
		}
	}
}

func satisfies(recv *types.Named, method string, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == method {
			return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
		}
	}
	return false
}

// walk marks every declaration reachable from roots.
func (s *deadcodeScan) walk(roots []types.Object) {
	stack := append([]types.Object{}, roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.reached[obj] {
			continue
		}
		s.reached[obj] = true
		stack = append(stack, s.edges[obj]...)
	}
}
