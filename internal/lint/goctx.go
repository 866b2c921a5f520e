package lint

import (
	"go/ast"
	"go/types"
)

// goctxCheck enforces goroutine hygiene in the long-running packages
// (servers, transports, schedulers): a bare `go func` with no
// cancellation signal is how remosd leaks goroutines under churn. A
// launch passes when the spawned body receives from a channel (select
// included), ranges over one, or observes a context.Context; calls to
// named functions pass when a ctx or channel travels in the arguments.
// Goroutines whose lifetime is bounded by an owned resource (an accept
// loop ending when its listener closes) carry an allow directive
// stating that invariant. Fan-out through internal/conc is the
// sanctioned alternative and is not a go statement, so it never trips
// the check.
type goctxCheck struct{}

func (goctxCheck) run(p *pass) {
	if !p.policy.GoCtx[p.pkg.Name] {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if !bodyHasSignal(p, lit.Body) {
					p.report(g.Pos(), "goctx",
						"goroutine has no cancellation signal (ctx/done channel); make it cancelable, launch via internal/conc, or state its lifetime bound in an allow directive")
				}
				return true
			}
			// go someFunc(...): the signal must travel in the call.
			for _, a := range g.Call.Args {
				t := p.pkg.TypesInfo.TypeOf(a)
				if t == nil {
					continue
				}
				if isContextType(t) || isChan(t) {
					return true
				}
			}
			p.report(g.Pos(), "goctx",
				"goroutine call carries no ctx or channel argument; thread a cancellation signal or state its lifetime bound in an allow directive")
			return true
		})
	}
}

// bodyHasSignal reports whether a function body contains a channel
// receive, a range over a channel, or a reference to a context.Context
// value.
func bodyHasSignal(p *pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if isChan(p.pkg.TypesInfo.TypeOf(n.X)) {
				found = true
			}
		case *ast.Ident:
			if obj := p.pkg.TypesInfo.Uses[n]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
