// Package golifecycle flags goroutines in the server packages that are
// not tied to a shutdown path — the goroutine-leak class the race
// detector cannot see, because a leaked goroutine races with nothing:
// it just accumulates, and a depthd process serving millions of users
// discovers the leak as memory growth in production.
//
// Every go statement in a server package must spawn a body the
// analyzer can prove joinable by at least one of:
//
//   - receiving from a channel or ranging over one (the select-on-
//     ctx.Done/stop-channel loop, or a worker draining a queue that
//     close() terminates);
//   - calling Done on a sync.WaitGroup (conventionally deferred), so a
//     Close/Wait path observes the exit;
//   - sending on or closing a channel declared outside the goroutine —
//     a join signal some owner can wait for (the done-channel pattern).
//
// The body may be a function literal or a same-package function or
// method (go s.worker()); the analyzer follows one level of call. A
// goroutine whose body it cannot resolve is flagged: if the lifecycle
// cannot be seen, it cannot be reviewed. Deliberate fire-and-forget
// spawns are suppressed with
//
//	//lint:ignore golifecycle <reason>
package golifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ServerPackages lists the import paths (exact or prefix) whose
// goroutines must be tied to a shutdown path: the long-running server
// stack, where a leak outlives any one request. Tests may append to it
// to aim the analyzer at testdata.
var ServerPackages = []string{
	"repro/internal/serve",
	"repro/internal/telemetry",
	"repro/internal/ledger",
	"repro/internal/profile",
	"repro/internal/core",
}

var Analyzer = &analysis.Analyzer{
	Name: "golifecycle",
	Doc: "requires every goroutine spawned in server packages to be tied to a " +
		"shutdown path (channel receive/range, WaitGroup.Done, or a join-channel send/close)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !serverPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, gs.Call)
			if body == nil {
				pass.Reportf(gs.Pos(),
					"goroutine body is not resolvable in this package, so its shutdown path cannot be checked; spawn a local function or //lint:ignore golifecycle <reason>")
				return true
			}
			if !hasShutdownTie(pass, body) {
				pass.Reportf(gs.Pos(),
					"goroutine is not tied to a shutdown path: select/receive on a stop or ctx.Done channel, range over a closable queue, defer a WaitGroup.Done, or signal a join channel (//lint:ignore golifecycle <reason> for deliberate fire-and-forget)")
			}
			return true
		})
	}
	return nil
}

func serverPackage(path string) bool {
	for _, p := range ServerPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// spawnedBody resolves the block the goroutine will execute: the
// literal's body, or the body of a same-package function or method.
func spawnedBody(pass *analysis.Pass, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return declBody(pass, pass.TypesInfo.Uses[fun])
	case *ast.SelectorExpr:
		return declBody(pass, pass.TypesInfo.Uses[fun.Sel])
	}
	return nil
}

// declBody finds the declaration body of a function object within the
// package under analysis.
func declBody(pass *analysis.Pass, obj types.Object) *ast.BlockStmt {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// hasShutdownTie reports whether the goroutine body contains one of
// the accepted lifecycle shapes. Nested function literals are skipped:
// a callback that happens to receive from a channel is not this
// goroutine's shutdown path.
func hasShutdownTie(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			// <-ch anywhere: the goroutine blocks on (or polls) a
			// channel someone can close or feed.
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.SendStmt:
			if declaredOutside(pass, n.Chan, body) {
				found = true
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				// close(ch) on an outer channel is a join signal.
				if fun.Name == "close" &&
					pass.TypesInfo.Uses[fun] == types.Universe.Lookup("close") &&
					len(n.Args) == 1 && declaredOutside(pass, n.Args[0], body) {
					found = true
				}
			case *ast.SelectorExpr:
				// wg.Done() registers the exit with a WaitGroup.
				if fun.Sel.Name == "Done" && isWaitGroup(pass.TypesInfo.TypeOf(fun.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// declaredOutside reports whether the expression refers to something
// declared outside the goroutine body: a field selector, or an
// identifier whose declaration precedes (or follows) the body. A
// channel both made and signaled inside the goroutine joins nothing.
func declaredOutside(pass *analysis.Pass, e ast.Expr, body *ast.BlockStmt) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		return obj.Pos() < body.Pos() || obj.Pos() > body.End()
	}
	return false
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer).
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
