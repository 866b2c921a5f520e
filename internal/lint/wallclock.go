package lint

import "go/ast"

// wallclockCheck enforces clock injection: packages built on
// sim.Scheduler (or an injected Now func) must never reach for the
// runtime clock directly, or emulated runs stop being deterministic and
// prediction timestamps drift from the deployment clock. The designated
// "nil means time.Now" fallback sites carry an allow directive, which
// the driver verifies stays attached to a real use.
type wallclockCheck struct{}

// wallclockFuncs are the time functions that read or wait on the
// runtime clock. Pure constructors (time.Date, time.Unix) and types
// (time.Time, time.Duration) stay legal.
var wallclockFuncs = set(
	"Now", "Sleep", "After", "AfterFunc", "Tick",
	"NewTimer", "NewTicker", "Since", "Until",
)

func (wallclockCheck) run(p *pass) {
	if !p.policy.Wallclock[p.pkg.Name] {
		return
	}
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if importedPackage(p, sel.X) != "time" || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			p.report(sel.Pos(), "wallclock",
				"direct time."+sel.Sel.Name+" in a clock-injected package; use the sim.Scheduler / injected Now")
			return true
		})
	}
}
