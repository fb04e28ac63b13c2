package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestModuleStdVersion fails on any use, in the module's sources and its
// in-package and external test files, of a standard-library symbol newer
// than the Go version go.mod declares.
// Neither go build nor go vet flags one when the toolchain is newer than
// go.mod, yet CI builds with go.mod's version and breaks on it. New
// symbols are read from the toolchain's $GOROOT/api/go1.N.txt files for
// N above go.mod's version, less anything an older file lists (a symbol
// that only reached another platform later); a missing file is logged and
// skipped, so a toolchain no newer than go.mod checks nothing.
func TestModuleStdVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	modMinor := goModMinor(t, "../../go.mod")
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	apiDir := filepath.Join(strings.TrimSpace(string(out)), "api")
	toolMinor := goMinor(t, strings.TrimPrefix(runtime.Version(), "go"))
	if toolMinor <= modMinor {
		t.Logf("toolchain %s is not newer than go.mod's go1.%d: nothing to check", runtime.Version(), modMinor)
		return
	}
	old := map[string]bool{}
	for _, name := range append([]string{"go1.txt"}, apiFiles(1, modMinor)...) {
		readAPI(t, filepath.Join(apiDir, name), func(key string) { old[key] = true })
	}
	added := map[string]string{} // key -> the Go version that added it
	for n := modMinor + 1; n <= toolMinor; n++ {
		ver := fmt.Sprintf("go1.%d", n)
		readAPI(t, filepath.Join(apiDir, ver+".txt"), func(key string) {
			if !old[key] {
				added[key] = ver
			}
		})
	}

	fset, pkgs := loadModule(t)
	pkgs = append(pkgs[:len(pkgs):len(pkgs)], moduleTest...)
	local := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		local[p.Path] = true
	}
	seen := map[string]bool{} // a test build re-checks its package's sources
	for _, p := range pkgs {
		stdUses(p.Info, p.Files, local, func(n ast.Node, key string) {
			at := fset.Position(n.Pos()).String()
			if ver, ok := added[key]; ok && !seen[at] {
				seen[at] = true
				t.Errorf("%s: %s is new in %s; go.mod declares go1.%d", at, key, ver, modMinor)
			}
		})
	}
}

// apiFiles names go1.lo.txt through go1.hi.txt.
func apiFiles(lo, hi int) []string {
	var out []string
	for n := lo; n <= hi; n++ {
		out = append(out, fmt.Sprintf("go1.%d.txt", n))
	}
	return out
}

// goModMinor reads the minor version of go.mod's go directive.
func goModMinor(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go "); ok {
			return goMinor(t, strings.TrimSpace(v))
		}
	}
	t.Fatalf("%s: no go directive", path)
	return 0
}

// goMinor is N of a "1.N" or "1.N.P" version (a pre-release suffix such
// as "rc1" is ignored).
func goMinor(t *testing.T, v string) int {
	t.Helper()
	parts := strings.Split(v, ".")
	if len(parts) < 2 || parts[0] != "1" {
		t.Fatalf("unrecognised Go version %q", v)
	}
	digits := strings.TrimRightFunc(parts[1], func(r rune) bool { return r < '0' || r > '9' })
	n, err := strconv.Atoi(digits)
	if err != nil {
		t.Fatalf("unrecognised Go version %q", v)
	}
	return n
}

// readAPI hands add the key of every symbol path's API file lists (see
// apiKey). A missing file is logged and skipped.
func readAPI(t *testing.T, path string, add func(key string)) {
	t.Helper()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		t.Logf("skipping %s: not in this toolchain", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if key, ok := apiKey(sc.Text()); ok {
			add(key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// apiKey turns one API file line into the key stdUses reports:
// "path.Name" for a package-level symbol and "path.Type.Name" for a
// method, an interface method or a struct field.
//
//	pkg time, method (Time) AppendText([]uint8) ([]uint8, error) #62384
//	pkg os, method (*Root) Close() error #67002
//	pkg net/http, type Server struct, HTTP2 *HTTP2Config #67813
//	pkg go/types, type Alias struct #63223
//	pkg syscall (linux-386), const AF_ALG = 38
func apiKey(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "pkg ")
	if !ok {
		return "", false
	}
	head, decl, ok := strings.Cut(rest, ", ")
	if !ok {
		return "", false
	}
	path, _, _ := strings.Cut(head, " ") // drop a "(goos-goarch)" qualifier
	kind, decl, _ := strings.Cut(decl, " ")
	switch kind {
	case "const", "var", "func":
		return path + "." + ident(decl), true
	case "method":
		recv, name, ok := strings.Cut(strings.TrimPrefix(decl, "("), ") ")
		if !ok {
			return "", false
		}
		return path + "." + ident(strings.TrimPrefix(recv, "*")) + "." + ident(name), true
	case "type":
		typ, member, ok := cutTop(decl, ", ")
		if !ok {
			return path + "." + ident(typ), true
		}
		return path + "." + ident(typ) + "." + ident(member), true
	}
	return "", false
}

// cutTop is strings.Cut at the first sep outside brackets, braces and
// parentheses, so "Seq2[$0 interface{}, $1 interface{}] func(...)" and
// "I interface { A, B }" stay whole.
func cutTop(s, sep string) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{', '(':
			depth++
		case ']', '}', ')':
			depth--
		}
		if depth == 0 && strings.HasPrefix(s[i:], sep) {
			return s[:i], s[i+len(sep):], true
		}
	}
	return s, "", false
}

// ident is the identifier s starts with.
func ident(s string) string {
	if i := strings.IndexAny(s, " ([="); i >= 0 {
		return s[:i]
	}
	return s
}

// stdUses reports, with the key apiKey gives it, every use in a
// package's files of a symbol of a package outside local: package-level
// objects, methods by their declaring type, and struct fields, selected or
// keyed in a composite literal, by their owning type.
func stdUses(info *types.Info, files []*ast.File, local map[string]bool, report func(ast.Node, string)) {
	foreign := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && !local[obj.Pkg().Path()]
	}
	for id, obj := range info.Uses {
		if !foreign(obj) {
			continue
		}
		if obj.Parent() == obj.Pkg().Scope() {
			report(id, obj.Pkg().Path()+"."+obj.Name())
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
				if n := named(sig.Recv().Type()); n != nil {
					report(id, fn.Pkg().Path()+"."+n.Obj().Name()+"."+fn.Name())
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.FieldVal || !foreign(sel.Obj()) {
					return true
				}
				// Walk the embedding path to the struct declaring the field.
				t, owner := sel.Recv(), (*types.Named)(nil)
				for _, i := range sel.Index() {
					owner = named(t)
					st, ok := deref(t).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					t = st.Field(i).Type()
				}
				if owner != nil {
					report(n.Sel, sel.Obj().Pkg().Path()+"."+owner.Obj().Name()+"."+sel.Obj().Name())
				}
			case *ast.CompositeLit:
				owner := named(info.TypeOf(n))
				if owner == nil || !foreign(owner.Obj()) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if field, ok := info.Uses[key].(*types.Var); ok && field.IsField() {
							report(key, owner.Obj().Pkg().Path()+"."+owner.Obj().Name()+"."+key.Name)
						}
					}
				}
			}
			return true
		})
	}
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// named is t, or the type t points to, as a named type (its generic
// origin when instantiated), or nil.
func named(t types.Type) *types.Named {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}
