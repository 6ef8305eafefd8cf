// Package fpcomplete verifies fingerprint completeness: for every
// concrete type with a Fingerprint() string method (or an
// AppendFingerprint([]byte) []byte method, which appends the same
// rendering to a buffer), every exported field of its struct must be
// written into the hash — or carry an explicit exemption:
//
//	//lint:fpexempt <reason>
//
// in the field's doc or line comment. Fingerprints are the result-
// cache keys (pipeline.Config, power.Model, BTB geometry, ...), so a
// new exported field that changes simulated behavior but misses the
// fingerprint silently serves stale cached results for new
// configurations — the invariant this analyzer makes unbreakable.
//
// Coverage is syntactic but conservative: a field counts as hashed if
// the method selects it (directly or through an embedded path), and
// passing the whole receiver to another function (fmt.Sprintf("%+v",
// c)) or calling another method on it counts as covering every field.
package fpcomplete

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ExemptDirective marks a field as deliberately outside the hash.
const ExemptDirective = "lint:fpexempt"

var Analyzer = &analysis.Analyzer{
	Name: "fpcomplete",
	Doc: "checks that every exported struct field is folded into the type's " +
		"Fingerprint() or carries a //lint:fpexempt <reason> comment",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil ||
				(fd.Name.Name != "Fingerprint" && fd.Name.Name != "AppendFingerprint") {
				continue
			}
			checkFingerprint(pass, fd)
		}
	}
	return nil
}

func checkFingerprint(pass *analysis.Pass, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	if !fingerprintSignature(fn) {
		return
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return
	}
	named, _ := deref(recv.Type()).(*types.Named)
	if named == nil {
		return
	}
	st, _ := named.Underlying().(*types.Struct)
	if st == nil {
		return
	}

	// Whole-receiver escapes (methods called on it, the value passed
	// somewhere) conservatively cover everything.
	if receiverEscapes(pass, fd) {
		return
	}

	covered := coveredFields(pass, fd)
	exempt := exemptFields(pass, named.Obj().Name())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() || covered[f.Name()] || exempt[f.Name()] {
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"%s.%s() does not hash exported field %s: a behavior-changing field outside the fingerprint silently corrupts result-cache keys; hash it or mark it //lint:fpexempt <reason>",
			named.Obj().Name(), fd.Name.Name, f.Name())
	}
}

// fingerprintSignature reports whether fn renders a fingerprint:
// Fingerprint() string, or AppendFingerprint([]byte) []byte, which
// appends the same rendering to a buffer.
func fingerprintSignature(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	res := sig.Results().At(0).Type()
	if fn.Name() == "Fingerprint" {
		b, ok := res.(*types.Basic)
		return ok && sig.Params().Len() == 0 && b.Kind() == types.String
	}
	return sig.Params().Len() == 1 && isBytes(res) && isBytes(sig.Params().At(0).Type())
}

// isBytes reports whether t is []byte.
func isBytes(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// coveredFields collects every field name the method body selects,
// through direct or embedded paths.
func coveredFields(pass *analysis.Pass, fd *ast.FuncDecl) map[string]bool {
	covered := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pass.TypesInfo.Selections[se]
		if sel == nil || sel.Kind() != types.FieldVal {
			return true
		}
		// Record the first step of the selection path: selecting any
		// part of an embedded or nested field covers that field.
		if obj, ok := rootField(sel); ok {
			covered[obj] = true
		}
		covered[sel.Obj().Name()] = true
		return true
	})
	return covered
}

// rootField names the outermost field of a (possibly embedded)
// selection path.
func rootField(sel *types.Selection) (string, bool) {
	recv := sel.Recv()
	st, _ := deref(recv).Underlying().(*types.Struct)
	if st == nil {
		return "", false
	}
	idx := sel.Index()
	if len(idx) == 0 || idx[0] >= st.NumFields() {
		return "", false
	}
	return st.Field(idx[0]).Name(), true
}

// receiverEscapes reports whether the receiver value itself is used as
// more than a field-selection base: passed as an argument, returned,
// or used as the receiver of another method call. Any of those can
// fold arbitrary fields into the hash, so the analyzer assumes they
// do.
func receiverEscapes(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	recvObjs := make(map[types.Object]bool)
	for _, f := range fd.Recv.List {
		for _, name := range f.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				recvObjs[obj] = true
			}
		}
	}
	if len(recvObjs) == 0 {
		return false
	}
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || !recvObjs[pass.TypesInfo.Uses[id]] {
			return true
		}
		if se, ok := parents[id].(*ast.SelectorExpr); ok && se.X == ast.Expr(id) {
			sel := pass.TypesInfo.Selections[se]
			if sel == nil || sel.Kind() == types.FieldVal {
				return true // plain field selection: handled per field
			}
		}
		escapes = true // method call, argument, return, assignment, ...
		return false
	})
	return escapes
}

// exemptFields collects the //lint:fpexempt-marked field names of the
// named struct type, searching every file of the package for the type
// declaration.
func exemptFields(pass *analysis.Pass, typeName string) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					if !hasExempt(f.Doc) && !hasExempt(f.Comment) {
						continue
					}
					for _, name := range f.Names {
						out[name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func hasExempt(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, ExemptDirective); ok &&
			strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}
