package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Finding is one diagnostic resolved to a file position, ready to
// print or assert on.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Chain is the interprocedural call chain (root first) for
	// module-analyzer findings; empty for per-package analyzers.
	Chain []ChainLink
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns (go list syntax, e.g.
// "./...") from dir and applies every analyzer the policy assigns to
// each package, then the module analyzers (noalloc, shardsafe) over
// the whole loaded set. Findings already suppressed by
// //dcslint:allow directives are dropped; malformed directives are
// reported as findings of the pseudo-analyzer "dcslint".
func Run(dir string, patterns ...string) ([]Finding, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	merged := allowSet{}
	for _, pkg := range pkgs {
		allows, bad := parseAllows(pkg.Fset, pkg.Files)
		merged.merge(allows)
		diags := append([]Diagnostic{}, bad...)
		for _, a := range Analyzers() {
			if !Applies(a, pkg.Path) {
				continue
			}
			diags = append(diags, runAnalyzer(a, pkg, allows)...)
		}
		findings = append(findings, toFindings(pkg.Fset, diags)...)
	}
	findings = append(findings, runModuleAnalyzers(pkgs, ModuleAnalyzers(), merged)...)
	sortFindings(findings)
	return findings, nil
}

// Apply runs a single analyzer over one loaded package, honouring
// //dcslint:allow directives and reporting malformed directives, but
// ignoring the package-scope policy. This is the hook the
// analysistest harness drives testdata packages through.
func Apply(a *Analyzer, pkg *Package) []Finding {
	allows, bad := parseAllows(pkg.Fset, pkg.Files)
	diags := append([]Diagnostic{}, bad...)
	diags = append(diags, runAnalyzer(a, pkg, allows)...)
	return toFindings(pkg.Fset, diags)
}

// ApplyModule runs a single module analyzer over a set of loaded
// packages (the analysistest harness passes one testdata package),
// honouring //dcslint:allow directives and reporting malformed ones.
func ApplyModule(ma *ModuleAnalyzer, pkgs ...*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	merged := allowSet{}
	var bad []Diagnostic
	for _, pkg := range pkgs {
		allows, b := parseAllows(pkg.Fset, pkg.Files)
		merged.merge(allows)
		bad = append(bad, b...)
	}
	findings := toFindings(pkgs[0].Fset, bad)
	findings = append(findings, runModuleAnalyzers(pkgs, []*ModuleAnalyzer{ma}, merged)...)
	sortFindings(findings)
	return findings
}

// runAnalyzer runs one analyzer over pkg, filtering allowed findings.
func runAnalyzer(a *Analyzer, pkg *Package, allows allowSet) []Diagnostic {
	var out []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report: func(d Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			if allows.allowed(pkg.Fset.Position(d.Pos), d.Analyzer) {
				return
			}
			out = append(out, d)
		},
	}
	if err := a.Run(pass); err != nil {
		out = append(out, Diagnostic{
			Pos:      pkg.Files[0].Pos(),
			Analyzer: a.Name,
			Message:  fmt.Sprintf("internal error: %v", err),
		})
	}
	return out
}

// runModuleAnalyzers builds the facts layer once over pkgs and runs
// the given module analyzers, filtering allowed findings.
func runModuleAnalyzers(pkgs []*Package, mas []*ModuleAnalyzer, allows allowSet) []Finding {
	if len(pkgs) == 0 || len(mas) == 0 {
		return nil
	}
	facts := BuildFacts(pkgs)
	fset := facts.Fset
	var out []Diagnostic
	for _, ma := range mas {
		pass := &ModulePass{
			Analyzer: ma,
			Fset:     fset,
			Facts:    facts,
			Report: func(d Diagnostic) {
				if d.Analyzer == "" {
					d.Analyzer = ma.Name
				}
				if allows.allowed(fset.Position(d.Pos), d.Analyzer) {
					return
				}
				out = append(out, d)
			},
		}
		if err := ma.Run(pass); err != nil {
			out = append(out, Diagnostic{
				Pos:      pkgs[0].Files[0].Pos(),
				Analyzer: ma.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
	}
	return toFindings(fset, out)
}

func toFindings(fset *token.FileSet, diags []Diagnostic) []Finding {
	var findings []Finding
	for _, d := range diags {
		findings = append(findings, Finding{
			Pos:      fset.Position(d.Pos),
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Chain:    d.Chain,
		})
	}
	return findings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Print writes findings one per line in file:line:col form.
func Print(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
}

// jsonFinding is the machine-readable shape of one finding
// (cmd/dcslint -json); CI turns these into GitHub annotations.
type jsonFinding struct {
	File     string          `json:"file"`
	Line     int             `json:"line"`
	Column   int             `json:"column"`
	Analyzer string          `json:"analyzer"`
	Message  string          `json:"message"`
	Chain    []jsonChainLink `json:"chain,omitempty"`
}

type jsonChainLink struct {
	Func string `json:"func"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// HotpathRoot describes one //dcslint:hotpath-annotated function:
// where it is, and which BENCH_dataplane.json benchmarks its
// zero-allocation promise anchors. cmd/benchdiff cross-checks this
// list against the dynamic allocs_per_op gate so the static and
// dynamic promises cannot drift apart.
type HotpathRoot struct {
	Func    string   `json:"func"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Benches []string `json:"benches,omitempty"`
}

// Hotpaths loads the packages matching patterns and returns the
// hotpath roots in source order.
func Hotpaths(dir string, patterns ...string) ([]HotpathRoot, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	facts := BuildFacts(pkgs)
	out := make([]HotpathRoot, 0, len(facts.Roots))
	for _, root := range facts.Roots {
		p := facts.Fset.Position(root.Decl.Pos())
		out = append(out, HotpathRoot{
			Func:    root.Name(),
			File:    relFile(p.Filename),
			Line:    p.Line,
			Benches: root.Hotpath.Benches,
		})
	}
	return out, nil
}

// PrintHotpaths writes roots as an indented JSON array.
func PrintHotpaths(w io.Writer, roots []HotpathRoot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(roots)
}

// PrintJSON writes findings as a JSON array (one object per finding,
// stable field order, trailing newline).
func PrintJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		jf := jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		}
		for _, l := range f.Chain {
			jf.Chain = append(jf.Chain, jsonChainLink{Func: l.Func, File: l.File, Line: l.Line})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
