package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// metricnameCheck keeps the observability namespace coherent: every
// metric registered on an obs Registry must be a snake_case name under
// remos_ with a known subsystem token, counters must end in _total,
// histograms must carry a unit suffix, and a name may be registered
// from exactly one call site — two sites registering the same family
// (possibly with different help text or types) is how dashboards
// silently split.
type metricnameCheck struct{}

// metricSite records one registration for the duplicate analysis.
type metricSite struct {
	pos  token.Position
	kind string
}

// metricMethods maps Registry method names to the metric kind they
// register.
var metricMethods = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"GaugeFunc": "gauge",
	"Histogram": "histogram",
}

var snakeName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

func (c *metricnameCheck) run(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := metricMethods[sel.Sel.Name]
			if !ok || recvNamed(p, sel) != "Registry" || len(call.Args) == 0 {
				return true
			}
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !isLit || lit.Kind != token.STRING {
				p.report(call.Args[0].Pos(), "metricname",
					"metric name is not a string literal; names must be statically auditable")
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			c.validate(p, lit.Pos(), kind, name)
			p.r.metrics[name] = append(p.r.metrics[name],
				metricSite{pos: p.pkg.Fset.Position(lit.Pos()), kind: kind})
			return true
		})
	}
}

// validate applies the naming grammar to one registration.
func (c *metricnameCheck) validate(p *pass, pos token.Pos, kind, name string) {
	if !snakeName.MatchString(name) {
		p.report(pos, "metricname", fmt.Sprintf("metric %q is not snake_case", name))
		return
	}
	tokens := strings.Split(name, "_")
	if tokens[0] != "remos" {
		p.report(pos, "metricname", fmt.Sprintf("metric %q is outside the remos_ namespace", name))
		return
	}
	if len(tokens) < 3 || !p.policy.MetricSubsystems[tokens[1]] {
		p.report(pos, "metricname", fmt.Sprintf(
			"metric %q has no known subsystem token (remos_<subsystem>_...)", name))
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			p.report(pos, "metricname", fmt.Sprintf("counter %q must end in _total", name))
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			p.report(pos, "metricname", fmt.Sprintf(
				"histogram %q must carry a unit suffix (_seconds or _bytes)", name))
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			p.report(pos, "metricname", fmt.Sprintf("gauge %q must not end in _total", name))
		}
	}
}

// finish reports names registered from more than one call site, at
// every site after the first (file order is the load order, which is
// deterministic).
func (c *metricnameCheck) finish(r *runner) {
	for name, sites := range r.metrics {
		if len(sites) < 2 {
			continue
		}
		for _, s := range sites[1:] {
			r.findings = append(r.findings, rawFinding{
				pos:   s.pos,
				check: "metricname",
				msg: fmt.Sprintf("metric %q already registered at %s:%d; register a family once and share the handle",
					name, sites[0].pos.Filename, sites[0].pos.Line),
			})
		}
	}
}
