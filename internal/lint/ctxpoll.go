// Check: ctxpoll — search loops on the ScheduleContext path stay cancellable.
//
// The serving loop's deadline discipline relies on every scheduler honoring
// context cancellation: a search loop that never polls ctx.Err()/ctx.Done()
// turns a deadline into a hang. The audit is scoped by the call graph:
//
//   - Entry points are the ScheduleContext implementations (the
//     ContextScheduler surface, matched by name so interface dispatch is
//     covered).
//   - A function is audited when it is connected to an entry point — it is
//     reachable from one, or reaches one — and its body references a
//     context.Context value. Pure kernels (nn, simenv) that search loops
//     call never see a context and are exempt without annotation.
//   - Every for/range loop of an audited function must contain a poll site:
//     a direct ctx.Err()/ctx.Done() call, or a call to a module function
//     that transitively polls. Bounded housekeeping loops that genuinely
//     need no poll carry //spear:nopoll(reason); the reason is mandatory.
//
// Dynamic (interface) call edges are over-approximated by method name, in
// both the connectivity and the transitive-poll propagation.
package lint

import (
	"go/ast"
	"go/types"
)

// checkCtxpoll audits every loop of every connected, context-referencing
// function in the analyzed packages.
func (r *Runner) checkCtxpoll(g *callGraph, pkgs []*modPkg) []Diagnostic {
	var diags []Diagnostic
	audited := r.auditedFuncs(g)
	polls := transitivePolls(g)
	// Name-level fact for interface call sites: some implementation with
	// this method name polls.
	pollsByName := make(map[string]bool)
	for _, node := range g.nodes {
		if polls[node.fn] {
			pollsByName[node.fn.Name()] = true
		}
	}
	for _, mp := range pkgs {
		for _, file := range mp.files {
			idx := indexMarkers(r.fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := mp.info.Defs[fd.Name].(*types.Func)
				if !ok || !audited[fn] {
					continue
				}
				r.ctxpollFunc(&diags, mp, fd, fn, idx, polls, pollsByName)
			}
		}
	}
	return diags
}

// auditedFuncs computes the audited set: functions connected to a
// ScheduleContext entry point in either direction whose bodies reference a
// context value.
func (r *Runner) auditedFuncs(g *callGraph) map[*types.Func]bool {
	// Name index for dynamic edges.
	byName := make(map[string][]*funcNode)
	for _, node := range g.nodes {
		byName[node.fn.Name()] = append(byName[node.fn.Name()], node)
	}
	succs := func(node *funcNode) []*funcNode {
		var out []*funcNode
		for _, cs := range node.calls {
			if cs.callee != nil {
				if callee := g.nodes[cs.callee]; callee != nil {
					out = append(out, callee)
				}
			} else if cs.method != "" {
				out = append(out, byName[cs.method]...)
			}
		}
		return out
	}

	forward := make(map[*funcNode]bool)
	var walk func(*funcNode)
	walk = func(node *funcNode) {
		if forward[node] {
			return
		}
		forward[node] = true
		for _, s := range succs(node) {
			walk(s)
		}
	}
	for _, node := range g.nodes {
		if node.fn.Name() == "ScheduleContext" {
			walk(node)
		}
	}

	// Backward: anything whose forward cone contains an entry point.
	backward := make(map[*funcNode]bool)
	for _, node := range g.nodes {
		seen := make(map[*funcNode]bool)
		var reaches func(*funcNode) bool
		reaches = func(n *funcNode) bool {
			if n.fn.Name() == "ScheduleContext" {
				return true
			}
			if seen[n] {
				return false
			}
			seen[n] = true
			for _, s := range succs(n) {
				if reaches(s) {
					return true
				}
			}
			return false
		}
		if reaches(node) {
			backward[node] = true
		}
	}

	audited := make(map[*types.Func]bool)
	for _, node := range g.nodes {
		if (forward[node] || backward[node]) && referencesContext(node) {
			audited[node.fn] = true
		}
	}
	return audited
}

// referencesContext reports whether the function's signature or body
// mentions a context.Context value.
func referencesContext(node *funcNode) bool {
	sig, ok := node.fn.Type().(*types.Signature)
	if ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				return true
			}
		}
	}
	found := false
	body := bodyOf(node)
	if body == nil {
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := node.mp.info.Types[e]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// bodyOf finds the syntax body of a call-graph node.
func bodyOf(node *funcNode) *ast.BlockStmt {
	for _, file := range node.mp.files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if node.mp.info.Defs[fd.Name] == node.fn {
				return fd.Body
			}
		}
	}
	return nil
}

// transitivePolls propagates the direct-poll fact over the graph: a function
// polls transitively when its body polls or any callee (dynamic edges by
// name) does. It is computed as reverse reachability from the directly
// polling functions over the reversed static and by-name edges, so the
// verdict is independent of visiting order and recursive cycles need no
// in-progress state: a cycle polls exactly when some member reaches a poll.
func transitivePolls(g *callGraph) map[*types.Func]bool {
	byName := make(map[string][]*funcNode)
	for _, node := range g.nodes {
		byName[node.fn.Name()] = append(byName[node.fn.Name()], node)
	}
	callers := make(map[*funcNode][]*funcNode)
	var work []*funcNode
	for _, node := range g.nodes {
		if node.polls {
			work = append(work, node)
		}
		for _, cs := range node.calls {
			switch {
			case cs.callee != nil:
				if callee := g.nodes[cs.callee]; callee != nil {
					callers[callee] = append(callers[callee], node)
				}
			case cs.method != "":
				for _, target := range byName[cs.method] {
					callers[target] = append(callers[target], node)
				}
			}
		}
	}
	out := make(map[*types.Func]bool)
	for _, node := range work {
		out[node.fn] = true
	}
	for len(work) > 0 {
		node := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[node] {
			if !out[caller.fn] {
				out[caller.fn] = true
				work = append(work, caller)
			}
		}
	}
	return out
}

// ctxpollFunc checks every for/range loop of one audited function,
// including loops inside its closures.
func (r *Runner) ctxpollFunc(diags *[]Diagnostic, mp *modPkg, fd *ast.FuncDecl, fn *types.Func, idx *markerIndex, polls map[*types.Func]bool, pollsByName map[string]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		if reason, ok := idx.argAt(r.fset, n.Pos(), markerNopoll); ok {
			if reason == "" {
				r.diag(diags, n.Pos(), checkNameCtxpoll,
					"//spear:nopoll requires a reason: //spear:nopoll(why this loop needs no cancellation poll)")
			}
			return true
		}
		if loopPolls(mp, n, polls, pollsByName) {
			return true
		}
		r.diag(diags, n.Pos(), checkNameCtxpoll,
			"loop in %s is on a ScheduleContext path but never reaches a ctx.Err()/ctx.Done() poll; poll the context in the loop or mark it //spear:nopoll(reason)",
			r.displayName(fn))
		return true
	})
}

// loopPolls reports whether a loop (condition, post statement and body all
// count) contains a poll site: a direct ctx.Err()/ctx.Done() call or a call
// to a module function that transitively polls. Closure bodies inside the
// loop count — worker loops hand the context to the closures they spawn.
func loopPolls(mp *modPkg, loop ast.Node, polls map[*types.Func]bool, pollsByName map[string]bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(mp.info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			if isContextType(sig.Recv().Type()) && (fn.Name() == "Err" || fn.Name() == "Done") {
				found = true
			} else if pollsByName[fn.Name()] {
				// Interface dispatch: some module implementation polls.
				found = true
			}
			return !found
		}
		if polls[fn] {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
