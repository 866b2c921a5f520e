// Package lint is remoslint: a dependency-free static-analysis suite
// that enforces the Remos invariants the compiler cannot see. The
// reproduction's collectors and Modeler are only trustworthy while the
// emulated deployments stay deterministic (discrete-event clock, seeded
// randomness), predictions and cache TTLs read the injected clock
// rather than the wall clock, errors crossing the public API carry the
// rerr taxonomy, and long-running goroutines stay cancelable. Each
// invariant is one analyzer:
//
//	wallclock  — no direct time.Now/Sleep/After/... in clock-injected
//	             packages; every clock there is a constructor argument,
//	             so no site is excused.
//	globalrand — no math/rand package-level functions anywhere in
//	             production code; randomness is an injected, seeded
//	             *rand.Rand.
//	errwrap    — fmt.Errorf across the wire/master/public boundaries
//	             must wrap error operands with %w (or construct via
//	             rerr), so codes survive to the wire.
//	goctx      — every go statement in long-running packages is
//	             cancelable: the goroutine receives from a channel,
//	             observes a context.Context, or the launch is delegated
//	             to internal/conc.
//	poolreturn — every sync.Pool Get in a pooled hot-path package is
//	             balanced by a Put on the same pool within the same
//	             function (direct or deferred), so serving paths cannot
//	             quietly stop recycling buffers.
//	lockorder  — the lock order the module actually has is acyclic:
//	             every mutex field is a class, an edge A -> B is any
//	             acquisition of B while A is held (directly, through the
//	             module-local call graph or module-interface dispatch),
//	             and every acquisition site on a cycle or self-loop is a
//	             finding.
//	lockheld   — no blocking operation (channel send/recv, select
//	             without default, Wait, network I/O, time.Sleep) runs
//	             between Lock/RLock and Unlock anywhere in the module,
//	             directly or through calls.
//
// A finding is suppressed by a //remoslint:allow <check> <reason>
// comment on the same line or the line above. The directive itself is
// verified: it must name a known check, carry a non-empty reason, and
// actually suppress a finding — stale or unjustified directives are
// diagnostics of their own (check "allow").
package lint

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to a check.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Policy maps each analyzer to the package names it applies to. Keying
// on package names (not import paths) lets the golden-file fixtures opt
// into a check by declaring the right package clause.
type Policy struct {
	// Wallclock packages are clock-injected: they take a sim.Scheduler
	// or Now func and must never read the runtime clock directly.
	Wallclock map[string]bool
	// ErrWrap packages sit on the error-taxonomy boundary: the wire
	// protocols, the master collector, and the public remos API.
	ErrWrap map[string]bool
	// GoCtx packages own long-running goroutines.
	GoCtx map[string]bool
	// PoolReturn packages recycle hot-path buffers through sync.Pool;
	// every Get must have a same-function (possibly deferred) Put.
	PoolReturn map[string]bool
}

// DefaultPolicy is the Remos repository policy.
func DefaultPolicy() Policy {
	return Policy{
		Wallclock: set("netsim", "maxmin", "sched", "watch", "qcache",
			"snmpcoll", "benchcoll", "rps", "snapshot", "admission",
			"federation"),
		ErrWrap: set("proto", "master", "remos"),
		GoCtx: set("proto", "directory", "snmp", "sim", "sched", "watch",
			"benchcoll", "qcache", "master", "admission", "federation"),
		PoolReturn: set("proto", "snmp", "snmpcoll", "topology"),
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// checker is one analyzer. Checks report raw findings through the pass;
// directive suppression happens centrally in Run.
type checker interface {
	run(p *pass)
}

// finisher is implemented by checks that need a whole-run view (the
// module-wide lock analyses).
type finisher interface {
	finish(r *runner)
}

// pass hands one package to one check.
type pass struct {
	pkg    *Package
	policy Policy
	r      *runner
}

// report records a finding at pos.
func (p *pass) report(pos token.Pos, check, msg string) {
	p.r.report(p.pkg.Fset, pos, check, msg)
}

// runner accumulates findings and allow directives across packages.
type runner struct {
	findings   []rawFinding
	directives []*directive
}

type rawFinding struct {
	pos   token.Position
	check string
	msg   string
}

func (r *runner) report(fset *token.FileSet, pos token.Pos, check, msg string) {
	r.findings = append(r.findings, rawFinding{pos: fset.Position(pos), check: check, msg: msg})
}

// AllowPrefix is the directive marker: //remoslint:allow <check> <reason>.
const AllowPrefix = "remoslint:allow"

// directive is one parsed //remoslint:allow comment.
type directive struct {
	pos     token.Position
	check   string
	reason  string
	invalid string // non-empty: why the directive itself is malformed
	used    bool
}

// knownChecks names every analyzer (plus the directive verifier
// itself), for directive validation.
var knownChecks = set("wallclock", "globalrand", "errwrap", "goctx",
	"poolreturn", "lockorder", "lockheld")

// collectDirectives parses the allow directives of one package.
func (r *runner) collectDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments don't carry directives
				}
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), AllowPrefix)
				if !ok {
					continue
				}
				d := &directive{pos: pkg.Fset.Position(c.Slash)}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.invalid = "allow directive names no check"
				case !knownChecks[fields[0]]:
					d.invalid = fmt.Sprintf("allow directive names unknown check %q", fields[0])
				case len(fields) == 1:
					d.invalid = fmt.Sprintf("allow directive for %s carries no reason", fields[0])
				default:
					d.check = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				r.directives = append(r.directives, d)
			}
		}
	}
}

// Run executes every analyzer over the packages and returns the
// surviving diagnostics, sorted by position. The shared concurrency
// substrate (function summaries + call graph) is built lazily by the
// first check that needs it.
func Run(pkgs []*Package, policy Policy) []Diagnostic {
	r := &runner{}
	cs := newConcState()
	checks := []checker{
		wallclockCheck{},
		globalrandCheck{},
		errwrapCheck{},
		goctxCheck{},
		poolreturnCheck{},
		&lockorderCheck{cs: cs},
		&lockheldCheck{cs: cs},
	}
	for _, pkg := range pkgs {
		r.collectDirectives(pkg)
		p := &pass{pkg: pkg, policy: policy, r: r}
		for _, c := range checks {
			c.run(p)
		}
	}
	for _, c := range checks {
		if f, ok := c.(finisher); ok {
			f.finish(r)
		}
	}

	// Suppress findings covered by a valid directive on the same line
	// or the line above, marking those directives used.
	type key struct {
		file  string
		line  int
		check string
	}
	byLine := make(map[key]*directive)
	for _, d := range r.directives {
		if d.invalid == "" {
			byLine[key{d.pos.Filename, d.pos.Line, d.check}] = d
		}
	}
	var diags []Diagnostic
	for _, f := range r.findings {
		suppressed := false
		for _, line := range [2]int{f.pos.Line, f.pos.Line - 1} {
			if d := byLine[key{f.pos.Filename, line, f.check}]; d != nil {
				d.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			diags = append(diags, Diagnostic{
				File: f.pos.Filename, Line: f.pos.Line, Col: f.pos.Column,
				Check: f.check, Message: f.msg,
			})
		}
	}
	// The directives themselves are verified: malformed or unused ones
	// are findings, so the escape hatch cannot rot into a blanket mute.
	for _, d := range r.directives {
		switch {
		case d.invalid != "":
			diags = append(diags, Diagnostic{
				File: d.pos.Filename, Line: d.pos.Line, Col: d.pos.Column,
				Check: "allow", Message: d.invalid,
			})
		case !d.used:
			diags = append(diags, Diagnostic{
				File: d.pos.Filename, Line: d.pos.Line, Col: d.pos.Column,
				Check:   "allow",
				Message: fmt.Sprintf("unused allow directive for %s (no finding suppressed)", d.check),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})
	return diags
}

// AllowDirective is one live //remoslint:allow comment, for the
// -allows audit listing (malformed directives are findings instead and
// do not appear here).
type AllowDirective struct {
	File   string
	Line   int
	Check  string
	Reason string
}

// Allows lists every well-formed allow directive in the packages,
// sorted by position — the audit surface that keeps directive creep
// visible in review.
func Allows(pkgs []*Package) []AllowDirective {
	r := &runner{}
	for _, pkg := range pkgs {
		r.collectDirectives(pkg)
	}
	var out []AllowDirective
	for _, d := range r.directives {
		if d.invalid != "" {
			continue
		}
		out = append(out, AllowDirective{
			File: d.pos.Filename, Line: d.pos.Line,
			Check: d.check, Reason: d.reason,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Relativize rewrites diagnostic file paths relative to dir (best
// effort; unrelatable paths stay absolute).
func Relativize(diags []Diagnostic, dir string) {
	for i := range diags {
		if rel, err := filepath.Rel(dir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
}

// WriteText renders diagnostics one per line: file:line: [check] message.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}
