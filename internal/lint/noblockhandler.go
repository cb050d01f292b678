package lint

import "go/token"

// NoBlockHandler proves run-to-completion handler procs never block.
//
// A handler proc (sim.Env.SpawnHandler, DESIGN.md §16) runs inline on
// the dispatcher's goroutine: if its body reaches any park-capable
// API — Proc.Sleep, Proc.Yield, Signal.Wait, Cond.Wait, Queue.Get,
// Resource.Acquire, BandwidthServer.Transfer, or anything that
// transitively calls the kernel's park — the kernel panics at runtime
// mid-simulation. This analyzer makes that contract a compile-time
// property: it computes the set of park-capable functions (everything
// from which (*sim.Proc).park is reachable over static call edges),
// then walks the call graph from every registered handler body and
// flags each edge that crosses into the park-capable set, with the
// root → sink chain in the diagnostic. Dynamic calls (interface
// methods, func values) cannot be proven park-free and are flagged
// conservatively; //dcslint:allow noblockhandler <reason> documents
// why such a site is safe.
var NoBlockHandler = &ModuleAnalyzer{
	Name: "noblockhandler",
	Doc: "prove handler-proc bodies never reach a park-capable API\n\n" +
		"Walks the module call graph from every sim.Env.SpawnHandler " +
		"registration and flags calls into park-capable kernel APIs " +
		"(Sleep, Yield, Wait, Get, Acquire, Transfer — anything that " +
		"reaches Proc.park) and unprovable dynamic calls, each with its " +
		"root → sink chain. Handler procs run inline on the dispatcher; " +
		"waiting must be expressed by re-arming on a Signal/Cond edge " +
		"or the non-blocking H variants. Suppress a proven-safe site " +
		"with //dcslint:allow noblockhandler <reason>.",
	Run: runNoBlockHandler,
}

func runNoBlockHandler(pass *ModulePass) error {
	facts := pass.Facts

	parkCapable := parkCapableSet(facts)
	if parkCapable == nil {
		return nil // kernel not among the loaded packages: nothing to prove
	}

	// Each offending site is reported once; each root body is walked
	// once no matter how many spawn sites register it.
	reported := map[token.Pos]bool{}
	checked := map[*FuncFacts]bool{}
	for _, ff := range facts.All {
		for _, cb := range ff.Callbacks {
			if cb.Kind != CallbackHandler {
				continue
			}
			roots, ok := facts.CallbackRoots(ff, cb)
			if !ok && !reported[cb.Pos] {
				reported[cb.Pos] = true
				chain := []ChainLink{{Func: ff.Name()}}
				pass.Reportf(cb.Pos, chain,
					"handler proc registered with an opaque func value dcslint cannot check for blocking calls [%s]", ff.Name())
			}
			for _, root := range roots {
				if checked[root] {
					continue
				}
				checked[root] = true
				checkHandlerRoot(pass, facts, root, parkCapable, reported)
			}
		}
	}
	return nil
}

// descendToKernelSink follows park-capable call edges down from the
// boundary callee until it reaches a kernel-package function — the
// blocking API the handler would actually hit (Signal.Wait, Queue.Get,
// Resource.Acquire, ...) rather than a module-local wrapper. Each hop
// is appended to chain; the final sink is returned.
func descendToKernelSink(facts *Facts, parkCapable map[*FuncFacts]bool, callee *FuncFacts, chain *[]ChainLink) *FuncFacts {
	sink := callee
	hopped := map[*FuncFacts]bool{sink: true}
	for sink.Fn == nil || sink.Fn.Pkg() == nil || sink.Fn.Pkg().Path() != SimKernelPath {
		var next *FuncFacts
		for _, cs := range sink.Calls {
			if c := facts.Lookup(cs.Callee); c != nil && parkCapable[c] && !hopped[c] {
				next = c
				break
			}
		}
		if next == nil {
			break
		}
		hopped[next] = true
		sink = next
		*chain = append(*chain, ChainLink{Func: sink.Name()})
	}
	return sink
}

// parkCapableSet computes the transitive closure of "calls
// (*sim.Proc).park" over static call edges — the functions a handler
// body must never reach. Returns nil when the kernel package (and so
// park itself) is not loaded.
func parkCapableSet(facts *Facts) map[*FuncFacts]bool {
	capable := map[*FuncFacts]bool{}
	for _, ff := range facts.All {
		if ff.Fn != nil && ff.Fn.Pkg() != nil && ff.Fn.Pkg().Path() == SimKernelPath &&
			recvTypeName(ff.Fn) == "Proc" && ff.Fn.Name() == "park" {
			capable[ff] = true
		}
	}
	if len(capable) == 0 {
		return nil
	}
	// Reverse-reachability by forward iteration to a fixed point: the
	// module graph is small and acyclic enough that this converges in
	// a handful of passes.
	for changed := true; changed; {
		changed = false
		for _, ff := range facts.All {
			if capable[ff] {
				continue
			}
			for _, cs := range ff.Calls {
				if callee := facts.Lookup(cs.Callee); callee != nil && capable[callee] {
					capable[ff] = true
					changed = true
					break
				}
			}
		}
	}
	return capable
}

// checkHandlerRoot walks the call graph from one handler body. The
// BFS stops at the park-capable boundary: the first call edge into the
// set is the diagnostic, extended down the park-capable chain to the
// kernel API actually parking (so it names Queue.Get, not a
// module-local wrapper and not the kernel-internal park). External
// (non-module) calls are safe by construction — only kernel code can
// park.
func checkHandlerRoot(pass *ModulePass, facts *Facts, root *FuncFacts, parkCapable map[*FuncFacts]bool, reported map[token.Pos]bool) {
	r := facts.newReach()
	r.addRoot(root)
	for i := 0; i < len(r.order); i++ {
		ff := r.order[i]
		for _, cs := range ff.Calls {
			callee := facts.Lookup(cs.Callee)
			if callee == nil {
				continue
			}
			if parkCapable[callee] {
				if !reported[cs.Pos] {
					reported[cs.Pos] = true
					chain := append(r.chain(ff), ChainLink{Func: callee.Name()})
					sink := descendToKernelSink(facts, parkCapable, callee, &chain)
					pass.Reportf(cs.Pos, chain,
						"handler proc %s reaches park-capable %s: handler bodies run inline on the dispatcher and must never block — re-arm on a Signal/Cond edge or use the non-blocking H variants [%s]",
						root.Name(), sink.Name(), chainString(chain))
				}
				continue
			}
			if r.seen[callee] {
				continue
			}
			r.seen[callee] = true
			r.parent[callee] = ff
			r.site[callee] = cs.Pos
			r.order = append(r.order, callee)
		}
		for _, d := range ff.Dynamic {
			if reported[d.Pos] {
				continue
			}
			reported[d.Pos] = true
			chain := r.chain(ff)
			pass.Reportf(d.Pos, chain,
				"cannot prove handler proc %s never blocks: %s [%s]",
				root.Name(), d.Desc, chainString(chain))
		}
	}
}
