package lint

import "go/ast"

// globalrandCheck bans the shared, process-seeded math/rand generator
// everywhere in production code: the emulator, scheduler jitter, and
// synthetic load must draw from an injected *rand.Rand seeded by the
// scenario, or two runs of the same experiment stop being bit
// reproducible. Constructing generators (rand.New, rand.NewSource,
// rand.NewZipf) is exactly the sanctioned pattern and stays legal.
type globalrandCheck struct{}

// globalRandFuncs are math/rand's package-level draws on the shared
// global source.
var globalRandFuncs = set(
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
	"Uint32", "Uint64", "Float32", "Float64",
	"NormFloat64", "ExpFloat64", "Perm", "Shuffle", "Seed", "Read",
	// math/rand/v2 spellings, so a future toolchain bump stays covered.
	"IntN", "Int32", "Int32N", "Int64", "Int64N", "UintN", "Uint64N", "N",
)

func (globalrandCheck) run(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path := importedPackage(p, sel.X)
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if !globalRandFuncs[sel.Sel.Name] {
				return true
			}
			p.report(sel.Pos(), "globalrand",
				"global rand."+sel.Sel.Name+" draws from the shared process source; inject a seeded *rand.Rand")
			return true
		})
	}
}
