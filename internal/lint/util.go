package lint

import (
	"go/ast"
	"go/types"
)

// importedPackage resolves a selector base expression to the import
// path of the package it names ("" when the base is not a package
// identifier) — how the checks tell time.Now from someStruct.Now.
func importedPackage(p *pass, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.pkg.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// isErrorType reports whether t (or *t) implements the built-in error
// interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
