package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// poolreturnCheck enforces pooling hygiene in the packages that recycle
// hot-path buffers (the wire protocols, the SNMP codec, the SNMP
// Collector's query and request scratch, the flow scratch): every
// sync.Pool Get must be matched by a Put on the same pool within the
// same top-level function — directly or via defer — so pooled objects
// cannot leak on early returns and quietly turn the pool into a
// per-call allocator. A Get whose object legitimately outlives the
// function (a handoff) carries an allow directive stating where the Put
// happens.
type poolreturnCheck struct{}

func (poolreturnCheck) run(p *pass) {
	if !p.policy.PoolReturn[p.pkg.Name] {
		return
	}
	for _, f := range p.pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPoolBalance(p, fn)
		}
	}
}

// checkPoolBalance pairs the Gets and Puts of one function body.
// Matching is by the rendered pool expression ("readerPool",
// "c.bufPool"), the granularity at which the repo names its pools;
// nested function literals count toward their enclosing declaration, so
// a Put inside a deferred closure satisfies the Get before it.
func checkPoolBalance(p *pass, fn *ast.FuncDecl) {
	type site struct {
		pos  token.Pos
		pool string
	}
	var gets []site
	puts := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isSyncPoolRecv(p, sel) {
			return true
		}
		pool := exprText(sel.X)
		switch sel.Sel.Name {
		case "Get":
			gets = append(gets, site{pos: call.Pos(), pool: pool})
		case "Put":
			puts[pool] = true
		}
		return true
	})
	for _, g := range gets {
		if !puts[g.pool] {
			p.report(g.pos, "poolreturn", fmt.Sprintf(
				"sync.Pool Get on %s with no Put in %s; return the object in this function (defer the Put) or state the handoff in an allow directive",
				g.pool, fn.Name.Name))
		}
	}
}

// isSyncPoolRecv reports whether sel is a method selection on sync.Pool
// (or *sync.Pool).
func isSyncPoolRecv(p *pass, sel *ast.SelectorExpr) bool {
	s, ok := p.pkg.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// exprText renders the small expression forms pools are reached through.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return exprText(e.X)
	case *ast.UnaryExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	}
	return "?"
}
