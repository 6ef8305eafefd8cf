// Package allocfree flags heap-allocating constructs in functions
// marked //lint:hotpath — the per-cycle bodies of the simulator and
// power model, where one allocation per cycle is millions per study
// point and the difference between the roadmap's ≥5× points/sec target
// and a GC-bound loop.
//
// A hotpath marker is a doc-comment directive with a reason:
//
//	//lint:hotpath per-cycle; runs once per simulated cycle
//	func (s *sim) loop() error { ... }
//
// Inside a marked function the analyzer reports, syntactically and via
// go/types, the constructs that allocate (or almost always escape):
//
//   - make, new, and address-of composite literals (&T{...});
//   - slice and map composite literals ([]T{...}, map[K]V{...}) —
//     plain value struct/array literals are fine, they stay in place;
//   - function literals, which capture loop state and escape when
//     passed to any non-inlined callee;
//   - append, unless it visibly reuses a preallocated backing array
//     (first argument is a reslice like buf[:0], or a variable
//     assigned from one);
//   - map index writes (m[k] = v), which can grow the table;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface conversions at call sites that box a concrete value
//     (pointer-shaped arguments — pointers, channels, maps, funcs —
//     convert without allocating and are not flagged).
//
// The checks are deliberately conservative approximations of escape
// analysis: a flagged construct the compiler provably keeps on the
// stack is suppressed with //lint:ignore allocfree <reason>, which
// documents the proof for the next editor. The runtime twin of this
// analyzer is the testing.AllocsPerRun guard in internal/power.
package allocfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "forbids heap-allocating constructs (make/new/&T{}, slice/map literals, closures, " +
		"growing append, map writes, string building, interface boxing) in //lint:hotpath functions",
	Run: run,
}

// hotpathRe matches the marker at the start of a doc-comment line and
// captures the reason text after it.
var hotpathRe = regexp.MustCompile(`(?m)^//lint:hotpath(?:\s+(.*))?$`)

// HotpathDirective is the marker comment prefix, exported so the
// conventions test can cross-check every marker in the repo.
const HotpathDirective = "lint:hotpath"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil {
				continue
			}
			if !isHotpath(fd.Doc) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// isHotpath reports whether the doc comment carries a hotpath marker.
// A marker without a reason still arms the analyzer here; the
// conventions test is what rejects reason-less markers repo-wide.
func isHotpath(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if hotpathRe.MatchString(c.Text) {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	reuse := reuseSet(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in hotpath %s captures state and escapes; hoist it to a method", fd.Name.Name)
			return false // its body is the closure's problem, not this hotpath's
		case *ast.CompositeLit:
			checkComposite(pass, fd, n)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal in hotpath %s escapes to the heap; reuse a preallocated struct", fd.Name.Name)
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath %s allocates; precompute or use a reused buffer", fd.Name.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isMap(pass, ix.X) {
					pass.Reportf(ix.Pos(), "map write in hotpath %s can grow the table; use a preallocated slice or move the write off the hot path", fd.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := n.X.(*ast.IndexExpr); ok && isMap(pass, ix.X) {
				pass.Reportf(ix.Pos(), "map write in hotpath %s can grow the table; use a preallocated slice or move the write off the hot path", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, reuse)
		}
		return true
	})
}

func checkComposite(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in hotpath %s allocates a backing array; preallocate it outside the loop", fd.Name.Name)
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in hotpath %s allocates; preallocate it outside the loop", fd.Name.Name)
	}
	// Value struct/array literals stay in place; the escaping form
	// (&T{...}) is reported at the UnaryExpr.
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, reuse map[types.Object]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj == types.Universe.Lookup(id.Name) {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(), "make in hotpath %s allocates; hoist the allocation out of the per-cycle path", fd.Name.Name)
				return
			case "new":
				pass.Reportf(call.Pos(), "new in hotpath %s allocates; hoist the allocation out of the per-cycle path", fd.Name.Name)
				return
			case "append":
				if len(call.Args) > 0 && !reusesBacking(pass, call.Args[0], reuse) {
					pass.Reportf(call.Pos(), "append in hotpath %s may grow the backing array; append to a reslice of a preallocated buffer (buf[:0])", fd.Name.Name)
				}
				return
			}
		}
	}
	// string <-> []byte/[]rune conversions are type-conversion calls.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := pass.TypesInfo.TypeOf(call.Fun)
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if to != nil && from != nil && convAllocates(to, from) {
			pass.Reportf(call.Pos(), "string conversion in hotpath %s copies and allocates; keep one representation", fd.Name.Name)
		}
		return
	}
	checkBoxing(pass, fd, call)
}

// checkBoxing reports call arguments boxed into interface parameters.
func checkBoxing(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if ok2 := ok && sig.Params() != nil; !ok2 {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || !boxes(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxed into interface parameter in hotpath %s allocates; take a concrete type or a pointer", fd.Name.Name)
	}
}

// boxes reports whether converting a concrete type to an interface
// stores it as a heap value. Pointer-shaped types fit in the interface
// word directly; untyped nil never boxes. Scalars and strings do box
// (modulo the runtime's small-int cache), so they are flagged: a
// fmt-style call in a per-cycle body is exactly the escape this
// analyzer exists to catch.
func boxes(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// convAllocates reports whether a conversion between to and from is a
// string<->[]byte or string<->[]rune copy.
func convAllocates(to, from types.Type) bool {
	return (isStringType(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	return t != nil && isStringType(t)
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// reuseSet collects identifiers assigned from a slice expression
// anywhere in the body — the keep := buf[:0] idiom — so append to them
// is recognized as reuse of a preallocated backing array.
func reuseSet(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	set := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, ok := rhs.(*ast.SliceExpr); !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				set[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				set[obj] = true
			}
		}
		return true
	})
	return set
}

// reusesBacking reports whether the append base visibly reuses a
// preallocated array: a direct reslice, or an identifier from the
// reuse set.
func reusesBacking(pass *analysis.Pass, base ast.Expr, reuse map[types.Object]bool) bool {
	switch base := base.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[base]; obj != nil && reuse[obj] {
			return true
		}
	}
	return false
}
