package lintkit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool=` driver protocol, so
// cmd/implicitlint plugs into the build system exactly like vet itself:
//
//	-V=full    print an executable version line (for go's build cache)
//	-flags     print supported flags as JSON (go vet validates its
//	           command line against them)
//	unit.cfg   analyze the single compilation unit the JSON config
//	           describes
//
// The config names the unit's Go files and, crucially, the export-data
// file of every dependency the build already compiled — so typechecking
// a unit is parse + one gc-importer pass, never a transitive source
// load. Findings print to stderr as "file:line:col: message (analyzer)"
// and a finding makes the tool exit 1, which go vet reports per
// package. The protocol and config shape follow
// golang.org/x/tools/go/analysis/unitchecker (the contract is go vet's,
// not ours to vary), reimplemented here on the standard library.

// unitConfig is the JSON compilation-unit description go vet writes.
// Fields this driver does not consume (fact plumbing, gccgo support)
// are listed to document the full contract but left unused: the suite's
// analyzers are all intra-package, so no .vetx facts are read or
// written.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool built from this framework. It
// parses the protocol flags, then either services a protocol query or
// analyzes the configured unit and exits with 1 if any finding
// survived suppression.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	if err := validate(analyzers); err != nil {
		log.Fatal(err)
	}
	enabled := registerFlags(analyzers)
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON")
	flag.Var(versionFlag{}, "V", "print version and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] unit.cfg   (via go vet -vettool=%s)\n", progname, progname)
		flag.PrintDefaults()
		os.Exit(2)
	}
	flag.Parse()

	if *printflags {
		printFlags()
		os.Exit(0)
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
	}
	runUnit(args[0], enabled())
}

// validate rejects duplicate or unnamed analyzers before any driver
// work.
func validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		switch {
		case a.Name == "":
			return fmt.Errorf("analyzer with empty name")
		case a.Run == nil:
			return fmt.Errorf("analyzer %s has no Run function", a.Name)
		case seen[a.Name]:
			return fmt.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// registerFlags wires each analyzer into the command line: a boolean
// -NAME flag selects analyzers (as with go vet's built-ins: if any is
// set true only those run; set-false analyzers are dropped), and each
// analyzer's own flags appear as -NAME.flag. It returns a closure
// resolving the enabled set after flag.Parse.
func registerFlags(analyzers []*Analyzer) func() []*Analyzer {
	selected := make(map[string]*triState, len(analyzers))
	for _, a := range analyzers {
		ts := new(triState)
		flag.Var(ts, a.Name, "enable only the "+a.Name+" analysis")
		selected[a.Name] = ts
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, a.Name+"."+f.Name, f.Usage)
		})
	}
	return func() []*Analyzer {
		anyTrue := false
		for _, ts := range selected {
			if *ts == setTrue {
				anyTrue = true
			}
		}
		var keep []*Analyzer
		for _, a := range analyzers {
			switch *selected[a.Name] {
			case setTrue:
				keep = append(keep, a)
			case unset:
				if !anyTrue {
					keep = append(keep, a)
				}
			case setFalse:
				// dropped
			}
		}
		return keep
	}
}

// runUnit analyzes one go vet compilation unit and exits.
func runUnit(cfgFile string, analyzers []*Analyzer) {
	cfg, err := readUnitConfig(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.VetxOnly {
		// go vet runs the tool over dependencies only to collect facts.
		// This suite keeps no cross-package facts, so a fact-only visit
		// has nothing to do — but the (empty) fact output must exist for
		// the caller's bookkeeping.
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log.Fatal(err)
			}
		}
		os.Exit(0)
	}
	fset := token.NewFileSet()
	diags, err := analyzeUnit(fset, cfg, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	exit := 0
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		exit = 1
	}
	os.Exit(exit)
}

func readUnitConfig(filename string) (*unitConfig, error) {
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode JSON config file %s: %v", filename, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

// analyzeUnit parses and typechecks the unit against the build's export
// data, then runs the analyzers.
func analyzeUnit(fset *token.FileSet, cfg *unitConfig, analyzers []*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil // the compiler will report it
			}
			return nil, err
		}
		files = append(files, f)
	}
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolve vendoring etc.
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return compilerImporter.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := NewTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return RunAnalyzers(analyzers, fset, files, pkg, info)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// printFlags services the -flags query: go vet validates the flags on
// its own command line against this list before invoking the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements -V=full: go's build cache identifies the tool
// by this line, hashing the executable so a rebuilt linter invalidates
// cached vet results. The output shape ("<prog> version devel ...
// buildID=<hex>") is what cmd/go's toolID parser accepts.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	prog, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(prog)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel implicitlint buildID=%02x\n", prog, h.Sum(nil))
	os.Exit(0)
	return nil
}

// triState distinguishes an unset -NAME flag from explicit true/false,
// which is what makes "-unsafeview" mean "only unsafeview" while no
// selection flags means "everything".
type triState int

const (
	unset triState = iota
	setTrue
	setFalse
)

func (ts *triState) IsBoolFlag() bool { return true }
func (ts *triState) Get() any         { return *ts == setTrue }
func (ts *triState) String() string {
	if ts != nil && *ts == setTrue {
		return "true"
	}
	return "false"
}
func (ts *triState) Set(value string) error {
	switch value {
	case "true", "":
		*ts = setTrue
	case "false":
		*ts = setFalse
	default:
		return fmt.Errorf("invalid boolean %q", value)
	}
	return nil
}
