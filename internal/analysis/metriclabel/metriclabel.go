// Package metriclabel statically checks telemetry metric registrations
// against the exposition naming rules, so a malformed series name or
// label key fails go vet instead of the CI metrics-exposition smoke.
//
// It validates, at every call site:
//
//   - Registry.Counter/Gauge/Histogram(name): the registry-name rule
//     (dotted names or LabelName-rendered series), plus the cycle-budget
//     vocabulary for "pipeline.budget."-prefixed names and the closed
//     serve./tsdb./slo./ledger. vocabularies for the server and its
//     observability subsystems;
//   - telemetry.LabelName(family, kv...): the family against the strict
//     exposition alphabet, constant label keys against the label rule
//     (including reserved names like le), and that kv pairs up — a
//     trailing odd key is silently dropped at runtime, which is always
//     a bug at the call site; a constant "bucket" label value must be a
//     canonical cycle-budget bucket name;
//   - span.Tracer.Start / span.Span.Child(name): the span name against
//     the canonical cost-attribution vocabulary (promexp.SpanNames) —
//     the span histograms, trace viewers and the benchmark's per-layer
//     attribution all key on these names, so an ad-hoc name forks the taxonomy.
//
// Constant-folded arguments are checked exactly; concatenations with a
// constant head ("resultcache." + name) have the head checked as a
// name prefix; fully dynamic names are skipped. The rule table itself
// lives in internal/telemetry/promexp (rules.go) and is shared with
// the runtime exposition linter, so the two layers cannot drift.
package metriclabel

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/telemetry/promexp"
)

// TelemetryPath is the import path of the metrics substrate whose
// registration points are checked.
const TelemetryPath = "repro/internal/telemetry"

// SpanPath is the import path of the span tracer whose Start/Child
// names are checked against the shared vocabulary.
const SpanPath = "repro/internal/telemetry/span"

// registryMethods are the Registry entry points whose first argument
// is a registry name.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// spanMethods are the span entry points whose first argument is a span
// name.
var spanMethods = map[string]bool{"Start": true, "Child": true}

// budgetPrefix marks registry names carrying a cycle-budget bucket.
const budgetPrefix = "pipeline.budget."

// servePrefix marks registry names owned by the depthd study server;
// they must come from the promexp.ServeMetrics vocabulary.
const servePrefix = "serve."

// vocabPrefixes maps the remaining owned registry-name prefixes to the
// promexp predicate validating the full name — the history store, the
// SLO engine and the request/job ledger each keep their meta-metric
// vocabulary closed the same way serve.* does.
var vocabPrefixes = map[string]func(string) error{
	"tsdb.":   promexp.ValidTSDBMetric,
	"slo.":    promexp.ValidSLOMetric,
	"ledger.": promexp.ValidLedgerMetric,
}

var Analyzer = &analysis.Analyzer{
	Name: "metriclabel",
	Doc: "checks telemetry Counter/Gauge/Histogram registrations and " +
		"LabelName call sites against the shared exposition naming rules",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case TelemetryPath:
				switch {
				case registryMethods[fn.Name()] && isRegistryMethod(fn):
					if len(call.Args) > 0 {
						checkRegistryName(pass, call.Args[0])
					}
				case fn.Name() == "LabelName" && fn.Type().(*types.Signature).Recv() == nil:
					checkLabelName(pass, call)
				}
			case SpanPath:
				if spanMethods[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil && len(call.Args) > 0 {
					if name, ok := constString(pass, call.Args[0]); ok {
						if err := promexp.ValidSpanName(name); err != nil {
							pass.Reportf(call.Args[0].Pos(), "span name: %v", err)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// isRegistryMethod reports whether fn is a method on telemetry.Registry.
func isRegistryMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// checkRegistryName validates the name argument of a Counter/Gauge/
// Histogram registration.
func checkRegistryName(pass *analysis.Pass, arg ast.Expr) {
	if name, ok := constString(pass, arg); ok {
		if err := promexp.ValidRegistryName(name); err != nil {
			pass.Reportf(arg.Pos(), "metric registration: %v", err)
		} else if rest, ok := strings.CutPrefix(name, budgetPrefix); ok {
			if err := promexp.ValidBudgetBucket(rest); err != nil {
				pass.Reportf(arg.Pos(), "metric registration: %v", err)
			}
		} else if strings.HasPrefix(name, servePrefix) {
			if err := promexp.ValidServeMetric(name); err != nil {
				pass.Reportf(arg.Pos(), "metric registration: %v", err)
			}
		} else {
			for prefix, valid := range vocabPrefixes {
				if strings.HasPrefix(name, prefix) {
					if err := valid(name); err != nil {
						pass.Reportf(arg.Pos(), "metric registration: %v", err)
					}
					break
				}
			}
		}
		return
	}
	// A call to telemetry.LabelName is validated at its own site.
	if isLabelNameCall(pass, arg) {
		return
	}
	if prefix, ok := constHead(pass, arg); ok {
		if err := promexp.ValidRegistryPrefix(prefix); err != nil {
			pass.Reportf(arg.Pos(), "metric registration: %v", err)
		}
	}
}

// checkLabelName validates a telemetry.LabelName(family, kv...) site.
func checkLabelName(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if family, ok := constString(pass, call.Args[0]); ok {
		if err := promexp.ValidMetricName(family); err != nil {
			pass.Reportf(call.Args[0].Pos(), "LabelName family: %v", err)
		}
	}
	if call.Ellipsis.IsValid() {
		return // kv forwarded as a slice: arity and keys unknowable here
	}
	kv := call.Args[1:]
	if len(kv)%2 == 1 {
		pass.Reportf(call.Args[len(call.Args)-1].Pos(),
			"LabelName called with an odd number of label arguments: the trailing key is silently dropped at runtime")
	}
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := constString(pass, kv[i])
		if !ok {
			continue
		}
		if err := promexp.ValidLabelName(key); err != nil {
			pass.Reportf(kv[i].Pos(), "LabelName key: %v", err)
		}
		// The bucket label is the budget vocabulary's exposition form;
		// the objective label is the SLO vocabulary's.
		if key == "bucket" {
			if val, ok := constString(pass, kv[i+1]); ok {
				if err := promexp.ValidBudgetBucket(val); err != nil {
					pass.Reportf(kv[i+1].Pos(), "LabelName value: %v", err)
				}
			}
		}
		if key == "objective" {
			if val, ok := constString(pass, kv[i+1]); ok {
				if err := promexp.ValidSLOObjective(val); err != nil {
					pass.Reportf(kv[i+1].Pos(), "LabelName value: %v", err)
				}
			}
		}
	}
}

// constString evaluates expr to a compile-time string constant.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constHead finds the leftmost constant fragment of a string
// concatenation, the statically-known prefix of a dynamic name.
func constHead(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	for {
		bin, ok := expr.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			break
		}
		expr = bin.X
	}
	return constString(pass, expr)
}

// isLabelNameCall reports whether expr is a direct telemetry.LabelName
// call.
func isLabelNameCall(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "LabelName" && fn.Pkg() != nil && fn.Pkg().Path() == TelemetryPath
}
