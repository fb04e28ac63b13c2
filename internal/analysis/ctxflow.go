package analysis

import (
	"go/ast"
	"go/types"
)

// ctxFlowPathSegments are the request/job-path packages where context
// threading is mandatory: severing ctx there breaks request cancellation,
// deadline propagation, and trace-ID correlation end to end.
var ctxFlowPathSegments = []string{
	"internal/server",
	"internal/jobs",
	"internal/exec",
	"internal/durable",
}

// CtxFlow enforces two rules on request/job paths:
//
//  1. context.Background() and context.TODO() are forbidden — a fresh root
//     severs cancellation and trace correlation. The only sanctioned roots
//     are process-lifetime ones (a manager's base context created at Open),
//     and those carry a documented ignore directive.
//  2. A function that receives a context.Context must thread it: every
//     context-typed argument it passes must be its own ctx parameter or a
//     context derived from it (WithCancel/WithTimeout/WithValue/...).
//     Passing an unrelated context while holding one is almost always a
//     plumbing bug.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "forbids context.Background()/TODO() on request/job paths and requires " +
		"functions receiving a ctx to thread it to their callees",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	inScope := false
	for _, seg := range ctxFlowPathSegments {
		if pathHas(pass.Path, seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFunc(pass, fd)
		}
	}
	return nil
}

// isCtxRoot reports whether call is context.Background() or context.TODO(),
// returning which.
func isCtxRoot(pass *Pass, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(pass.Info, call)
	if f == nil || funcPkgPath(f) != "context" {
		return "", false
	}
	if f.Name() == "Background" || f.Name() == "TODO" {
		return "context." + f.Name() + "()", true
	}
	return "", false
}

// checkCtxFunc applies both rules to one function declaration. Function
// literals inside are walked as part of the enclosing declaration: a
// closure sees (and must thread) the ctx it closes over.
func checkCtxFunc(pass *Pass, fd *ast.FuncDecl) {
	var ctxParam *types.Var
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			ctxParam = contextParam(sig)
		}
	}

	// derived is the set of context variables reachable from the ctx
	// parameter, grown in source order as derivations are assigned.
	derived := map[*types.Var]bool{}
	if ctxParam != nil {
		derived[ctxParam] = true
	}
	// Closure parameters named as contexts start independent derivation
	// roots: a `func(ctx context.Context)` literal threads its own ctx.
	litParams := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
					litParams[v] = true
					derived[v] = true
				}
			}
		}
		return true
	})

	// Pass 1 (source order): record derivations ctx2 := f(..., ctx, ...).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromDerived := false
		for _, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			// A var assigned from a fresh root is flagged at the root call;
			// treating it as derived avoids a second finding at every use.
			if _, isRoot := isCtxRoot(pass, call); isRoot {
				fromDerived = true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if v, ok := pass.Info.Uses[id].(*types.Var); ok && derived[v] {
						fromDerived = true
					}
				}
			}
			// Method calls on a derived receiver (req.WithContext style
			// chains keep the receiver's context lineage).
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v, ok := pass.Info.Uses[id].(*types.Var); ok && derived[v] {
						fromDerived = true
					}
				}
			}
		}
		if !fromDerived {
			return true
		}
		for _, lhs := range asg.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := pass.ObjectOf(id).(*types.Var); ok && isContextType(v.Type()) {
					derived[v] = true
				}
			}
		}
		return true
	})

	// Pass 2: flag roots, and non-derived context arguments.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if root, ok := isCtxRoot(pass, call); ok {
			if ctxParam != nil {
				pass.Reportf(call.Pos(), "%s in %s, which already receives a ctx: derive from it so cancellation and trace correlation propagate", root, fd.Name.Name)
			} else {
				pass.Reportf(call.Pos(), "%s starts a fresh root on a request/job path: thread a caller's context instead (process-lifetime roots need a documented ignore directive)", root)
			}
			return true
		}
		if ctxParam == nil {
			return true
		}
		for _, arg := range call.Args {
			t := pass.TypeOf(arg)
			if t == nil || !isContextType(t) {
				continue
			}
			switch a := ast.Unparen(arg).(type) {
			case *ast.Ident:
				if v, ok := pass.Info.Uses[a].(*types.Var); ok && !derived[v] {
					pass.Reportf(arg.Pos(), "%s receives ctx but passes unrelated context %q here; thread the function's own ctx", fd.Name.Name, a.Name)
				}
			case *ast.CallExpr:
				// r.Context(), span-derived contexts, etc. — results of
				// calls are accepted; roots were handled above.
			}
		}
		return true
	})
}
