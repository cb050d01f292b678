package lint

// The facts layer: per-function summaries computed once over every
// loaded module package, shared by the interprocedural analyzers
// (noalloc, shardsafe). A summary records, for one declared function
// or method, every syntactic construct the analyzers care about:
//
//   - allocation sites (make, new, append, slice/map literals,
//     capturing closures, method values, interface boxing, string
//     conversions and concatenation, go statements);
//   - resolved static calls (direct function and concrete-method
//     calls, canonicalized through Origin so generic instantiations
//     share one node);
//   - dynamic calls (interface methods, func-typed values) that no
//     summary can see through — the analyzers treat these
//     conservatively and the escape hatch documents why a given site
//     is safe;
//   - writes to package-level variables (assignment, ++/--, indexed
//     stores, pointer-receiver method calls on a global);
//   - kernel callback registrations (sim.Env.Spawn/Schedule/Chain,
//     sim.NewDeferred/NewCoalesced/NewPool, mem write hooks, pcie MSI
//     handlers, shard.Kernel.AddNode sinks) — the roots of "runs on
//     the simulated timeline";
//   - the //dcslint:hotpath directive marking a zero-allocation root.
//
// Function literals are flattened into their enclosing declaration's
// summary (a closure created on a hot path is assumed callable from
// it), and additionally summarized standalone when they are
// registered as kernel callbacks, so shardsafe can treat the literal
// itself as a proc body without tainting the encloser.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocKind classifies one allocation site.
type AllocKind int

// Allocation site kinds.
const (
	AllocMake        AllocKind = iota // make(slice/map/chan)
	AllocNew                          // new(T) or &T{...}
	AllocAppend                       // append may grow its backing array
	AllocSliceLit                     // slice composite literal
	AllocMapLit                       // map composite literal
	AllocClosure                      // capturing function literal
	AllocMethodValue                  // method value (binds its receiver)
	AllocBox                          // concrete value boxed into an interface
	AllocString                       // string<->[]byte/[]rune conversion
	AllocConcat                       // non-constant string concatenation
	AllocGoStmt                       // go statement (new goroutine)
)

func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocAppend:
		return "append may grow its backing array"
	case AllocSliceLit:
		return "slice literal"
	case AllocMapLit:
		return "map literal"
	case AllocClosure:
		return "capturing closure"
	case AllocMethodValue:
		return "method value (binds its receiver)"
	case AllocBox:
		return "interface boxing"
	case AllocString:
		return "string conversion"
	case AllocConcat:
		return "string concatenation"
	case AllocGoStmt:
		return "go statement"
	default:
		return "allocation"
	}
}

// AllocSite is one allocation construct found in a function body.
type AllocSite struct {
	Pos    token.Pos
	Kind   AllocKind
	Detail string // extra context, e.g. the captured variable names
}

// CallSite is one call found in a function body. Callee is non-nil
// for statically resolved calls; dynamic sites carry a description of
// what could not be resolved instead.
type CallSite struct {
	Pos    token.Pos
	Callee *types.Func // canonical (Origin) callee; nil for dynamic
	Desc   string      // for dynamic sites: what kind of call
}

// GlobalWrite is one write to a package-level variable.
type GlobalWrite struct {
	Pos  token.Pos
	Var  *types.Var
	Desc string // how it is written (assigned, ++/--, pointer method)
}

// CallbackKind classifies a kernel callback registration site.
type CallbackKind int

// Callback registration kinds.
const (
	CallbackSpawn    CallbackKind = iota // sim.Env.Spawn process body
	CallbackSchedule                     // sim.Env.Schedule event fn, sim.NewDeferred fn
	CallbackChain                        // sim.Env.Chain continuation, sim.NewCoalesced action
	CallbackHook                         // mem.Region.SetWriteHook
	CallbackMSI                          // pcie.Fabric.OnMSI handler
	CallbackSink                         // shard.Kernel.AddNode delivery sink
	CallbackHandler                      // sim.Env.SpawnHandler handler body
	CallbackPool                         // sim.NewPool worker start
)

func (k CallbackKind) String() string {
	switch k {
	case CallbackSpawn:
		return "sim.Env.Spawn process body"
	case CallbackSchedule:
		return "sim.Env.Schedule callback"
	case CallbackChain:
		return "sim.Env.Chain continuation"
	case CallbackPool:
		return "sim.Pool worker start"
	case CallbackHook:
		return "mem.Region write hook"
	case CallbackMSI:
		return "pcie MSI handler"
	case CallbackSink:
		return "shard.Kernel.AddNode sink"
	case CallbackHandler:
		return "sim.Env.SpawnHandler handler body"
	default:
		return "kernel callback"
	}
}

// Callback is one registration of model code with the kernel: the
// registered function runs on the simulated timeline, so it seeds
// shardsafe's proc-reachability.
type Callback struct {
	Pos  token.Pos
	Kind CallbackKind

	// Exactly one of Target (named function / method value) and Lit
	// (function literal) is set when the argument was resolvable; both
	// nil means the registration passed an opaque func value, unless
	// Field is set.
	Target *types.Func
	Lit    *ast.FuncLit
	// Field is set when the argument reads a func-typed struct field
	// (a body bound once, then registered many times): the values
	// stored into that field resolve it (Facts.CallbackRoots).
	Field *types.Var

	// For CallbackSink: the AddNode call's domain argument and the
	// innermost for/range statement enclosing the call (nil outside a
	// loop) — the scope shard wiring must keep captures inside.
	DomainArg ast.Expr
	Loop      ast.Stmt
	// ArgExpr is the raw callback argument (for receiver-root checks
	// on method values).
	ArgExpr ast.Expr
}

// Hotpath is a parsed //dcslint:hotpath directive attached to a
// function declaration: the function is a zero-allocation root that
// noalloc proves transitively allocation-free. Benches optionally
// name the BENCH_dataplane.json entries whose allocs_per_op == 0
// promise this root anchors (cmd/benchdiff cross-checks them).
type Hotpath struct {
	Pos     token.Pos
	Benches []string
}

// FuncFacts is the summary of one function declaration (or one
// standalone function literal registered as a kernel callback).
type FuncFacts struct {
	Fn   *types.Func   // nil for standalone literals
	Decl *ast.FuncDecl // nil for standalone literals
	Lit  *ast.FuncLit  // set only for standalone literal summaries
	Pkg  *Package

	Hotpath *Hotpath

	Allocs       []AllocSite
	Calls        []CallSite // statically resolved
	Dynamic      []CallSite // unresolvable call sites
	GlobalWrites []GlobalWrite
	Callbacks    []Callback
	FieldBinds   []FieldBind
}

// FieldBind is one store of a function value into a func-typed struct
// field (x.f = v, or f: v in a composite literal). Target or Lit is
// set when v resolves statically; both nil means an opaque value.
type FieldBind struct {
	Pos    token.Pos
	Field  *types.Var
	Target *types.Func
	Lit    *ast.FuncLit
}

// Name renders the function's name for diagnostics, e.g.
// "(*pcie.Fabric).DMA" or "mem.NewMap".
func (ff *FuncFacts) Name() string {
	if ff.Fn == nil {
		return "func literal"
	}
	return FuncName(ff.Fn)
}

// FuncName renders fn as pkg.Func or (*pkg.Type).Method.
func FuncName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	name := "?"
	if named, isNamed := t.(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	return "(" + ptr + pkg + name + ")." + fn.Name()
}

// Facts is the module-wide summary store plus the call-graph index.
type Facts struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncFacts // declared functions by canonical object
	Lits  map[*ast.FuncLit]*FuncFacts
	All   []*FuncFacts // every declared-function summary, in load/source order
	Roots []*FuncFacts // hotpath-annotated, in source order

	binds map[*types.Var][]fieldBindIn // func-typed field → values stored

	// Dangling hotpath directives (not attached to a function
	// declaration) surface as diagnostics.
	BadHotpaths []token.Pos
}

// BuildFacts summarizes every function in pkgs.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Funcs: map[*types.Func]*FuncFacts{},
		Lits:  map[*ast.FuncLit]*FuncFacts{},
		Pkgs:  pkgs,
	}
	if len(pkgs) > 0 {
		f.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			hot, dangling := hotpathDirectives(file)
			f.BadHotpaths = append(f.BadHotpaths, dangling...)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := &FuncFacts{Fn: canonical(obj), Decl: fd, Pkg: pkg}
				sum := &summarizer{pkg: pkg, facts: f, out: ff}
				sum.block(fd.Body)
				if hp, ok := hot[fd]; ok {
					ff.Hotpath = hp
					f.Roots = append(f.Roots, ff)
				}
				f.Funcs[ff.Fn] = ff
				f.All = append(f.All, ff)
			}
		}
	}
	return f
}

// fieldBindIn is a FieldBind with the summary it was found in.
type fieldBindIn struct {
	bind FieldBind
	in   *FuncFacts
}

// CallbackRoots returns the summaries a registration runs: its target
// or literal, or, for a func-typed field, every resolvable value
// stored into that field anywhere in the summarized module. ok is
// false when the registration cannot be checked: an opaque argument,
// a target outside the summarized set, a field never stored, or a
// field given an opaque value.
func (f *Facts) CallbackRoots(ff *FuncFacts, cb Callback) (roots []*FuncFacts, ok bool) {
	switch {
	case cb.Target != nil:
		if root := f.Lookup(cb.Target); root != nil {
			return []*FuncFacts{root}, true
		}
		return nil, false
	case cb.Lit != nil:
		return []*FuncFacts{f.litFacts(ff.Pkg, cb.Lit)}, true
	case cb.Field == nil:
		return nil, false
	}
	if f.binds == nil {
		f.binds = map[*types.Var][]fieldBindIn{}
		for _, g := range f.All {
			for _, b := range g.FieldBinds {
				f.binds[b.Field] = append(f.binds[b.Field], fieldBindIn{b, g})
			}
		}
	}
	bs := f.binds[cb.Field.Origin()]
	ok = len(bs) > 0
	for _, b := range bs {
		var root *FuncFacts
		switch {
		case b.bind.Target != nil:
			root = f.Lookup(b.bind.Target)
		case b.bind.Lit != nil:
			root = f.litFacts(b.in.Pkg, b.bind.Lit)
		}
		if root == nil {
			ok = false
			continue
		}
		roots = append(roots, root)
	}
	return roots, ok
}

// Lookup returns the facts for fn (seeing through generic
// instantiation), or nil for functions outside the summarized set.
func (f *Facts) Lookup(fn *types.Func) *FuncFacts {
	if fn == nil {
		return nil
	}
	return f.Funcs[canonical(fn)]
}

// litFacts returns (building on demand) the standalone summary of one
// registered function literal.
func (f *Facts) litFacts(pkg *Package, lit *ast.FuncLit) *FuncFacts {
	if ff, ok := f.Lits[lit]; ok {
		return ff
	}
	ff := &FuncFacts{Pkg: pkg, Lit: lit}
	f.Lits[lit] = ff // memoize before walking: literals can self-reference via recursion
	sum := &summarizer{pkg: pkg, facts: f, out: ff}
	sum.block(lit.Body)
	return ff
}

// hotpathDirectives scans a file's comments for //dcslint:hotpath and
// maps each to the FuncDecl it documents. Directives not attached to
// a function declaration's doc comment are returned as dangling
// positions (in source order) so the mistake is loud instead of a
// silently missing root.
func hotpathDirectives(file *ast.File) (map[*ast.FuncDecl]*Hotpath, []token.Pos) {
	out := map[*ast.FuncDecl]*Hotpath{}
	claimed := map[*ast.Comment]bool{}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if hp, ok := parseHotpath(c); ok {
				out[fd] = hp
				claimed[c] = true
			}
		}
	}
	var dangling []token.Pos
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if _, ok := parseHotpath(c); ok && !claimed[c] {
				dangling = append(dangling, c.Pos())
			}
		}
	}
	return out, dangling
}

// parseHotpath parses one //dcslint:hotpath comment.
func parseHotpath(c *ast.Comment) (*Hotpath, bool) {
	rest, found := strings.CutPrefix(c.Text, directivePrefix+"hotpath")
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	return &Hotpath{Pos: c.Pos(), Benches: strings.Fields(rest)}, true
}

// canonical maps a (possibly instantiated) function object to its
// generic origin so every instantiation shares one summary.
func canonical(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// summarizer walks one function body accumulating facts.
type summarizer struct {
	pkg   *Package
	facts *Facts
	out   *FuncFacts
	loops []ast.Stmt // enclosing for/range statements, innermost last
}

func (s *summarizer) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

func (s *summarizer) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.block(st)
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.AssignStmt:
		s.assign(st)
	case *ast.IncDecStmt:
		s.writeTarget(st.X, "incremented")
		s.expr(st.X)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			// Cold-path carve-out: an error constructed directly in a
			// return statement (return fmt.Errorf(...)) is the miss/
			// policy-violation arm that steady-state hot paths never
			// take; the dynamic AllocsPerRun gates confirm it. See
			// DESIGN.md §15 for the soundness trade.
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isErrorExpr(s.pkg.Info, call) {
				continue
			}
			s.expr(r)
		}
	case *ast.IfStmt:
		s.stmt(st.Init)
		s.expr(st.Cond)
		s.block(st.Body)
		s.stmt(st.Else)
	case *ast.ForStmt:
		s.stmt(st.Init)
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		s.stmt(st.Post)
		s.loops = append(s.loops, st)
		s.block(st.Body)
		s.loops = s.loops[:len(s.loops)-1]
	case *ast.RangeStmt:
		s.expr(st.X)
		if st.Tok == token.ASSIGN {
			if st.Key != nil {
				s.writeTarget(st.Key, "assigned")
			}
			if st.Value != nil {
				s.writeTarget(st.Value, "assigned")
			}
		}
		s.loops = append(s.loops, st)
		s.block(st.Body)
		s.loops = s.loops[:len(s.loops)-1]
	case *ast.SwitchStmt:
		s.stmt(st.Init)
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				s.expr(e)
			}
			for _, b := range cc.Body {
				s.stmt(b)
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init)
		s.stmt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, b := range cc.Body {
				s.stmt(b)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			s.stmt(cc.Comm)
			for _, b := range cc.Body {
				s.stmt(b)
			}
		}
	case *ast.GoStmt:
		s.alloc(st.Pos(), AllocGoStmt, "")
		s.call(st.Call)
	case *ast.DeferStmt:
		s.call(st.Call)
	case *ast.SendStmt:
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Conservatively walk anything unanticipated.
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.expr(e)
				return false
			}
			return true
		})
	}
}

func (s *summarizer) assign(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		if field := s.funcField(lhs); field != nil {
			var v ast.Expr // nil (opaque) for a multi-value right side
			if len(st.Rhs) == len(st.Lhs) {
				v = st.Rhs[i]
			}
			s.bindField(lhs.Pos(), field, v)
		}
		if st.Tok != token.DEFINE {
			s.writeTarget(lhs, "assigned")
		}
		// Index expressions etc. on the LHS still evaluate.
		if _, ok := lhs.(*ast.Ident); !ok {
			s.expr(lhs)
		}
	}
	for _, rhs := range st.Rhs {
		s.expr(rhs)
	}
}

// writeTarget records a write whose target's root identifier resolves
// to a package-level variable.
func (s *summarizer) writeTarget(e ast.Expr, how string) {
	root := rootIdent(e)
	if root == nil {
		return
	}
	v, ok := s.pkg.Info.Uses[root].(*types.Var)
	if !ok || !isPackageLevel(v) {
		return
	}
	s.out.GlobalWrites = append(s.out.GlobalWrites, GlobalWrite{
		Pos: e.Pos(), Var: v, Desc: how,
	})
}

// rootIdent returns the base identifier of a selector/index/star
// chain (a.b[i].c → a), or nil when the base is not an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isPackageLevel(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func (s *summarizer) alloc(pos token.Pos, kind AllocKind, detail string) {
	s.out.Allocs = append(s.out.Allocs, AllocSite{Pos: pos, Kind: kind, Detail: detail})
}

func (s *summarizer) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		s.call(e)
	case *ast.FuncLit:
		s.funcLit(e)
	case *ast.CompositeLit:
		if tv, ok := s.pkg.Info.Types[e]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				s.alloc(e.Pos(), AllocSliceLit, "")
			case *types.Map:
				s.alloc(e.Pos(), AllocMapLit, "")
			}
		}
		var st *types.Struct
		if tv, ok := s.pkg.Info.Types[e]; ok && tv.Type != nil {
			st, _ = tv.Type.Underlying().(*types.Struct)
		}
		for i, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if st != nil {
					if key, isID := kv.Key.(*ast.Ident); isID {
						if field, isVar := s.pkg.Info.Uses[key].(*types.Var); isVar && isFuncType(field.Type()) {
							s.bindField(kv.Pos(), field, kv.Value)
						}
					}
				}
				s.expr(kv.Value)
				continue
			}
			if st != nil && i < st.NumFields() && isFuncType(st.Field(i).Type()) {
				s.bindField(el.Pos(), st.Field(i), el)
			}
			s.expr(el)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if tv, ok := s.pkg.Info.Types[e]; ok && tv.Value == nil && isStringType(tv.Type) {
				s.alloc(e.Pos(), AllocConcat, "")
			}
		}
		s.expr(e.X)
		s.expr(e.Y)
	case *ast.UnaryExpr:
		// &T{...} is the canonical Go heap allocation. Escape analysis
		// may keep a non-escaping one on the stack, but a prover cannot
		// assume the optimizer; sites proven stack-allocated carry an
		// //dcslint:allow noalloc with the dynamic evidence.
		if e.Op == token.AND {
			if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
				s.alloc(e.Pos(), AllocNew, "address of composite literal")
			}
		}
		s.expr(e.X)
	case *ast.StarExpr:
		s.expr(e.X)
	case *ast.ParenExpr:
		s.expr(e.X)
	case *ast.SelectorExpr:
		s.selector(e)
	case *ast.IndexExpr:
		s.expr(e.X)
		s.expr(e.Index)
	case *ast.IndexListExpr:
		s.expr(e.X)
	case *ast.SliceExpr:
		s.expr(e.X)
		s.expr(e.Low)
		s.expr(e.High)
		s.expr(e.Max)
	case *ast.TypeAssertExpr:
		s.expr(e.X)
	case *ast.KeyValueExpr:
		s.expr(e.Value)
	case *ast.Ident, *ast.BasicLit, *ast.ArrayType, *ast.MapType,
		*ast.ChanType, *ast.FuncType, *ast.StructType, *ast.InterfaceType:
	default:
		ast.Inspect(e, func(n ast.Node) bool {
			if sub, ok := n.(ast.Expr); ok && sub != e {
				s.expr(sub)
				return false
			}
			return true
		})
	}
}

// funcField returns the func-typed struct field e selects, or nil.
func (s *summarizer) funcField(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fs, ok := s.pkg.Info.Selections[sel]; ok && fs.Kind() == types.FieldVal {
		if v, ok := fs.Obj().(*types.Var); ok && isFuncType(v.Type()) {
			return v
		}
	}
	return nil
}

// bindField records the store of v (nil: an opaque value) into field.
func (s *summarizer) bindField(pos token.Pos, field *types.Var, v ast.Expr) {
	b := FieldBind{Pos: pos, Field: field.Origin()}
	if v != nil {
		b.Target, b.Lit = s.funcValue(v)
	}
	s.out.FieldBinds = append(s.out.FieldBinds, b)
}

// funcValue resolves a function-valued expression to the function or
// method it names, or the literal it is; both nil when opaque.
func (s *summarizer) funcValue(e ast.Expr) (*types.Func, *ast.FuncLit) {
	switch arg := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return nil, arg
	case *ast.Ident:
		if f, ok := s.pkg.Info.Uses[arg].(*types.Func); ok {
			return canonical(f), nil
		}
	case *ast.SelectorExpr:
		if sel, ok := s.pkg.Info.Selections[arg]; ok && sel.Kind() == types.MethodVal {
			if f, ok := sel.Obj().(*types.Func); ok {
				return canonical(f), nil
			}
		} else if f, ok := s.pkg.Info.Uses[arg.Sel].(*types.Func); ok {
			return canonical(f), nil
		}
	}
	return nil, nil
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// selector handles a selector used as a value: a method value binds
// its receiver (one allocation per evaluation).
func (s *summarizer) selector(e *ast.SelectorExpr) {
	if sel, ok := s.pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
		s.alloc(e.Pos(), AllocMethodValue, sel.Obj().Name())
	}
	s.expr(e.X)
}

// funcLit records the literal as a capturing-closure allocation when
// it captures outer variables (non-capturing literals are static) and
// flattens its body into the enclosing summary.
func (s *summarizer) funcLit(lit *ast.FuncLit) {
	if caps := capturedVars(s.pkg.Info, lit); len(caps) > 0 {
		s.alloc(lit.Pos(), AllocClosure, "captures "+strings.Join(caps, ", "))
	}
	s.block(lit.Body)
}

// capturedVars lists the names of outer variables a literal captures.
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	objs := freeVarObjs(info, lit)
	names := make([]string, len(objs))
	for i, v := range objs {
		names[i] = v.Name()
	}
	return names
}

// freeVarObjs returns the outer (non-field, non-package-level)
// variables a literal captures, in first-use order.
func freeVarObjs(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var objs []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevel(v) || seen[v] {
			return true
		}
		// Declared outside the literal?
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			objs = append(objs, v)
		}
		return true
	})
	return objs
}

// call dissects one call expression.
func (s *summarizer) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.alloc(call.Pos(), AllocMake, "")
			case "new":
				s.alloc(call.Pos(), AllocNew, "")
			case "append":
				s.alloc(call.Pos(), AllocAppend, "")
			case "panic":
				// Crash path: the allocation cost of dying is irrelevant,
				// so panic argument subtrees are exempt.
				return
			}
			for _, a := range call.Args {
				s.expr(a)
			}
			return
		}
	}

	// Type conversions.
	if tv, ok := s.pkg.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if at, ok := s.pkg.Info.Types[call.Args[0]]; ok && at.Value == nil &&
				isStringByteConv(tv.Type, at.Type) {
				s.alloc(call.Pos(), AllocString, "")
			}
			s.expr(call.Args[0])
		}
		return
	}

	// Resolve the callee.
	fn := calleeFunc(s.pkg.Info, call)
	switch {
	case fn == nil:
		if lit, ok := fun.(*ast.FuncLit); ok {
			// Immediately-invoked literal: its body is already flattened.
			s.funcLit(lit)
		} else {
			s.out.Dynamic = append(s.out.Dynamic, CallSite{
				Pos: call.Pos(), Desc: "call through a func value",
			})
			s.expr(fun)
		}
	case isInterfaceMethod(fn):
		s.out.Dynamic = append(s.out.Dynamic, CallSite{
			Pos: call.Pos(), Desc: "interface method call " + fn.Name(),
		})
		// Walk only the receiver: the selector itself is the call, not a
		// bound method value.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			s.expr(sel.X)
		}
	default:
		s.out.Calls = append(s.out.Calls, CallSite{Pos: call.Pos(), Callee: canonical(fn)})
		// A pointer-receiver method invoked on a package-level variable
		// may mutate it (atomic knobs are the canonical case).
		s.methodOnGlobal(call, fn)
		// Walk the receiver expression of method calls for nested work.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			s.expr(sel.X)
		}
	}

	// Boxing: concrete values passed to interface parameters.
	s.boxedArgs(call)

	// Kernel callback registrations.
	s.callback(call, fn)

	for _, a := range call.Args {
		s.expr(a)
	}
}

func (s *summarizer) methodOnGlobal(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return
	}
	// sync/atomic Load* takes a pointer receiver but only reads; a
	// package-level default read with Load must not count as a
	// cross-domain write.
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && strings.HasPrefix(fn.Name(), "Load") {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root := rootIdent(sel.X)
	if root == nil {
		return
	}
	if v, ok := s.pkg.Info.Uses[root].(*types.Var); ok && isPackageLevel(v) {
		s.out.GlobalWrites = append(s.out.GlobalWrites, GlobalWrite{
			Pos: call.Pos(), Var: v,
			Desc: "mutated through pointer method " + fn.Name(),
		})
	}
}

// boxedArgs flags concrete, non-constant values passed to interface
// parameters — each boxing may allocate. Constant arguments (string
// literals to fmt, etc.) still box, but the flagged fmt/external call
// already covers those sites; flagging every constant would bury the
// signal.
func (s *summarizer) boxedArgs(call *ast.CallExpr) {
	tv, ok := s.pkg.Info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			st, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := s.pkg.Info.Types[arg]
		if !ok || at.Value != nil || at.IsNil() || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) {
			continue
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			// Boxing a pointer stores it directly in the interface word
			// (no copy); the call that consumes it is flagged separately
			// if it matters, so skip to keep the signal high.
			continue
		}
		s.alloc(arg.Pos(), AllocBox, types.TypeString(at.Type, types.RelativeTo(s.pkg.Types)))
	}
}

// callback records kernel callback registrations (see Callback).
func (s *summarizer) callback(call *ast.CallExpr, fn *types.Func) {
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var kind CallbackKind
	argIdx := -1
	switch {
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "Env" && fn.Name() == "Spawn":
		kind, argIdx = CallbackSpawn, 1
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "Env" && fn.Name() == "SpawnHandler":
		kind, argIdx = CallbackHandler, 1
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "Env" && fn.Name() == "Schedule":
		kind, argIdx = CallbackSchedule, 1
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "Env" && fn.Name() == "Chain":
		kind, argIdx = CallbackChain, 0
	// The kernel's plumbing types register their function argument
	// with Schedule, Chain or (through the worker start) Spawn.
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "" && fn.Name() == "NewDeferred":
		kind, argIdx = CallbackSchedule, 1
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "" && fn.Name() == "NewCoalesced":
		kind, argIdx = CallbackChain, 1
	case fn.Pkg().Path() == SimKernelPath && recvTypeName(fn) == "" && fn.Name() == "NewPool":
		kind, argIdx = CallbackPool, 2
	case fn.Pkg().Path() == ModulePath+"/internal/mem" && recvTypeName(fn) == "Region" && fn.Name() == "SetWriteHook":
		kind, argIdx = CallbackHook, 0
	case fn.Pkg().Path() == ModulePath+"/internal/pcie" && recvTypeName(fn) == "Fabric" && fn.Name() == "OnMSI":
		kind, argIdx = CallbackMSI, 1
	case fn.Pkg().Path() == ShardKernelPath && recvTypeName(fn) == "Kernel" && fn.Name() == "AddNode":
		kind, argIdx = CallbackSink, 2
	default:
		return
	}
	if argIdx >= len(call.Args) {
		return
	}
	cb := Callback{Pos: call.Pos(), Kind: kind, ArgExpr: call.Args[argIdx]}
	cb.Target, cb.Lit = s.funcValue(call.Args[argIdx])
	if cb.Target == nil && cb.Lit == nil {
		cb.Field = s.funcField(call.Args[argIdx])
	}
	if kind == CallbackSink {
		cb.DomainArg = call.Args[1]
		if len(s.loops) > 0 {
			cb.Loop = s.loops[len(s.loops)-1]
		}
	}
	s.out.Callbacks = append(s.out.Callbacks, cb)
}

// recvTypeName returns the name of fn's receiver type ("" for
// package-level functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// isErrorExpr reports whether e's static type implements error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, errorIface) ||
		types.Implements(types.NewPointer(tv.Type), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConv reports whether a conversion between to and from
// crosses the string/[]byte (or []rune) boundary, which copies.
func isStringByteConv(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32
}
