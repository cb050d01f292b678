// Package analysistest checks a dcslint analyzer's diagnostics
// against expectations embedded in testdata sources, mirroring
// golang.org/x/tools/go/analysis/analysistest (which the
// zero-dependency build cannot import).
//
// A `// want` comment sits on the line where a diagnostic is expected
// and carries one quoted regular expression per expected diagnostic:
//
//	time.Now() // want `time\.Now reads the wall clock`
//
// Double-quoted Go string literals work too. Every produced
// diagnostic must be matched by exactly one want pattern on its line,
// and every want pattern must match a diagnostic; anything else fails
// the test. //dcslint:allow directives are honoured exactly as in the
// real driver, so testdata can exercise the escape hatch, and
// malformed directives surface as diagnostics of the pseudo-analyzer
// "dcslint".
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dcsctrl/internal/lint"
)

// sharedLoader serves all analyzer tests: testdata packages import
// overlapping closures (time, math/rand, the sim kernel), and the
// shared type-check cache makes each CheckDir after the first cheap.
var (
	loaderOnce   sync.Once
	sharedLoader *lint.Loader
)

// Run applies analyzer a to the single package rooted at dir and
// compares diagnostics with // want expectations. The package's import
// path is the directory's base name.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	RunAs(t, a, dir, filepath.Base(dir))
}

// RunAs is Run with the testdata package type-checked under import
// path pkgPath, for analyzers whose checks depend on which package
// they run in (nogoroutine's device-package Spawn ban).
func RunAs(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	check(t, dir, pkgPath, func(pkg *lint.Package) []lint.Finding {
		return lint.Apply(a, pkg)
	})
}

// RunModule applies module analyzer ma to the single package rooted
// at dir (treated as the whole module for facts purposes) and
// compares diagnostics with // want expectations. deps name real
// module packages (go list patterns) whose function bodies join the
// facts set alongside the testdata package — interprocedural
// analyzers like noblockhandler need the kernel's own bodies to
// compute park-capable reachability. Deps are loaded before the
// testdata package so both type-check against the same package
// objects; a diagnostic landing in a dep fails the test.
func RunModule(t *testing.T, ma *lint.ModuleAnalyzer, dir string, deps ...string) {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader = lint.NewLoader("") })
	var extra []*lint.Package
	if len(deps) > 0 {
		var err error
		extra, err = sharedLoader.Load(deps...)
		if err != nil {
			t.Fatalf("loading deps %v: %v", deps, err)
		}
	}
	check(t, dir, filepath.Base(dir), func(pkg *lint.Package) []lint.Finding {
		return lint.ApplyModule(ma, append([]*lint.Package{pkg}, extra...)...)
	})
}

func check(t *testing.T, dir, pkgPath string, apply func(*lint.Package) []lint.Finding) {
	t.Helper()
	loaderOnce.Do(func() { sharedLoader = lint.NewLoader("") })
	pkg, err := sharedLoader.CheckDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, f := range apply(pkg) {
		k := key{filepath.Base(f.Pos.Filename), f.Pos.Line}
		got[k] = append(got[k], fmt.Sprintf("[%s] %s", f.Analyzer, f.Message))
	}

	for _, w := range parseWants(t, pkg) {
		k := key{w.file, w.line}
		re, err := regexp.Compile(w.pattern)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", w.file, w.line, w.pattern, err)
		}
		idx := -1
		for i, m := range got[k] {
			if re.MatchString(m) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s:%d: no diagnostic matching %q (got %v)", w.file, w.line, w.pattern, got[k])
			continue
		}
		got[k] = append(got[k][:idx], got[k][idx+1:]...)
	}
	for k, msgs := range got {
		for _, m := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, m)
		}
	}
}

type want struct {
	file    string
	line    int
	pattern string
}

var (
	wantCommentRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantStringRE  = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// parseWants extracts want expectations from the package's comments.
func parseWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantCommentRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantStringRE.FindAllString(m[1], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					var pat string
					if strings.HasPrefix(q, "`") {
						pat = strings.Trim(q, "`")
					} else {
						u, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, q, err)
						}
						pat = u
					}
					wants = append(wants, want{filepath.Base(pos.Filename), pos.Line, pat})
				}
			}
		}
	}
	return wants
}
