// Package lintkit is the repository's self-contained static-analysis
// framework: a deliberately small reimplementation of the
// golang.org/x/tools/go/analysis surface on top of nothing but the
// standard library's go/ast, go/types, and go/importer.
//
// Why not x/tools? Two reasons, both structural. First, the serving
// binary's dependency graph must stay std-only — `go list -deps ./store`
// showing no third-party import is a checked invariant, and an analysis
// framework living in the same module must not be able to violate it by
// accident. Second, the analyzers in the sibling packages are
// project-specific: they encode invariants of THIS engine (checked
// unsafe casts, one-load snapshot discipline, fsync-outside-mutex,
// KeepAlive pinning, the durable API's error contract), so the framework
// under them only needs the subset of the x/tools API those checks use.
//
// The shape mirrors go/analysis on purpose so the analyzers read like
// any other Go analyzer and could be ported to x/tools verbatim:
//
//   - Analyzer describes one check: name, doc, flags, and a Run function.
//   - Pass hands Run one typechecked package and collects Diagnostics.
//   - Findings are suppressed per line with a justified
//     "//lint:allow <analyzer> <reason>" comment (see allow.go) — an
//     UNjustified allow comment is itself a finding, so suppressions
//     cannot silently accumulate.
//
// Two drivers run analyzers:
//
//   - unitchecker.go speaks the `go vet -vettool=` protocol, which is how
//     cmd/implicitlint runs: go vet plans the build, hands each
//     package's files and export data to the tool via a JSON config, and
//     relays line-anchored findings.
//   - analysistest/ runs an analyzer over testdata fixture packages and
//     checks findings against `// want "regexp"` comments.
package lintkit

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags
	// (-Name, -Name.flag), and //lint:allow comments. It must be a
	// valid identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank
	// line, then details.
	Doc string

	// Flags holds analyzer-specific flags, registered by the drivers
	// under the "Name." prefix.
	Flags flag.FlagSet

	// Run applies the check to one package and reports findings through
	// pass.Report/Reportf.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass is one application of one analyzer to one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	allow allowIndex
}

// A Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a finding unless an allow comment suppresses it.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	if p.allow.suppressed(p.Fset, d) {
		return
	}
	p.diags = append(p.diags, d)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzers applies each analyzer to one typechecked package and
// returns every surviving finding in position order. It is the single
// execution path shared by the unitchecker and analysistest, so
// suppression semantics cannot drift between drivers.
// Besides the analyzers' own findings it reports malformed //lint:allow
// comments (unknown analyzer name, missing justification): a suppression
// that does not say what it suppresses and why is itself a defect.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	allow, bad := indexAllows(fset, files, analyzers)
	var all []Diagnostic
	all = append(all, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			allow:     allow,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		all = append(all, pass.diags...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Pos < all[j].Pos })
	return all, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers use
// populated — all drivers typecheck through this so no analyzer finds a
// nil map in one driver that another filled in.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// ---- shared type/AST helpers used by the analyzer packages ----

// CalleeFunc returns the *types.Func a call resolves to, or nil for
// calls through function values, builtins, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		// Calls to methods of generic types resolve to the
		// instantiation; normalize to the generic declaration so callees
		// compare equal to the objects in info.Defs.
		fn = fn.Origin()
	}
	return fn
}

// ReceiverNamed returns the named type of a method's receiver,
// unwrapping one pointer, or nil if fn is not a method.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOf reports whether fn is a method named name on the named
// type pkgPath.typeName (receiver pointer-ness ignored). Generic types
// match on their origin.
func IsMethodOf(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := ReceiverNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// PkgPathMatches reports whether path equals one of the comma-separated
// patterns or ends with "/"+pattern — so "internal/mmapio" matches the
// package whatever the module is named, without matching
// "otherinternal/mmapio".
func PkgPathMatches(path, patterns string) bool {
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// EnclosingFuncs returns, for each top-level FuncDecl in the files, the
// declaration and its types.Func object. Declarations the typechecker
// could not resolve are skipped.
func EnclosingFuncs(info *types.Info, files []*ast.File) map[*ast.FuncDecl]*types.Func {
	m := make(map[*ast.FuncDecl]*types.Func)
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				m[fd] = fn
			}
		}
	}
	return m
}
