package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// errwrapCheck guards the error taxonomy at the process boundaries: in
// the wire protocols, the master collector, and the public remos
// package, an error folded into fmt.Errorf with %v or %s loses its
// chain, so errors.Is stops matching the rerr sentinels and the wire
// code degrades to UNAVAILABLE-less text. Error operands must travel
// under %w (or the error must be built via rerr.Tag/Tagf, which wrap
// internally).
type errwrapCheck struct{}

func (errwrapCheck) run(p *pass) {
	if !p.policy.ErrWrap[p.pkg.Name] {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" || importedPackage(p, sel.X) != "fmt" {
				return true
			}
			checkErrorf(p, call)
			return true
		})
	}
}

// checkErrorf pairs the format verbs of one fmt.Errorf call with its
// operands and reports error-typed operands not travelling under %w.
func checkErrorf(p *pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		// A non-constant format cannot be audited; flag it only when an
		// error operand is present, since that is the risky shape.
		for _, a := range call.Args[1:] {
			if isErrorType(p.pkg.TypesInfo.TypeOf(a)) {
				p.report(call.Pos(), "errwrap",
					"fmt.Errorf with a non-constant format and an error operand; use a constant format with %w")
				return
			}
		}
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	args := call.Args[1:]
	for _, v := range parseVerbs(format) {
		if v.arg < 0 || v.arg >= len(args) {
			continue // malformed call; go vet owns arity complaints
		}
		t := p.pkg.TypesInfo.TypeOf(args[v.arg])
		if !isErrorType(t) {
			continue
		}
		if v.verb != 'w' {
			p.report(args[v.arg].Pos(), "errwrap", fmt.Sprintf(
				"error operand formatted with %%%c loses its chain across this boundary; wrap with %%w or construct via rerr", v.verb))
		}
	}
}

// verb is one format directive and the operand index it consumes.
type verb struct {
	verb byte
	arg  int
}

// parseVerbs scans a Printf-style format, returning each verb with the
// index of the operand it binds to. It understands flags, width and
// precision (including '*'), and explicit argument indexes ([n]).
func parseVerbs(format string) []verb {
	var out []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Flags.
		for i < len(format) && (format[i] == '+' || format[i] == '-' ||
			format[i] == '#' || format[i] == ' ' || format[i] == '0') {
			i++
		}
		// Width (possibly '*', which consumes an operand).
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		if i < len(format) && format[i] == '*' {
			arg++
			i++
		}
		// Precision.
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
			if i < len(format) && format[i] == '*' {
				arg++
				i++
			}
		}
		// Explicit argument index.
		if i < len(format) && format[i] == '[' {
			j := i + 1
			n := 0
			for j < len(format) && format[j] >= '0' && format[j] <= '9' {
				n = n*10 + int(format[j]-'0')
				j++
			}
			if j < len(format) && format[j] == ']' && n > 0 {
				arg = n - 1
				i = j + 1
			}
		}
		if i >= len(format) {
			break
		}
		out = append(out, verb{verb: format[i], arg: arg})
		arg++
	}
	return out
}
