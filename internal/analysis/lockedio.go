package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockedIO flags blocking operations — file writes and fsyncs (on an
// *os.File or through a file-like interface), network round-trips, writes
// to interface writers, channel sends/receives, sleeps — that are
// reachable while a sync.Mutex or sync.RWMutex is held. A slow
// disk or scraper must never stall every other request behind a hot lock:
// the WAL fsync path and the trace/metrics stores are the motivating
// call sites (lockedio ⇔ WAL latency, metrics-scrape availability).
//
// The check is intraprocedural over lock regions with one package-local
// level of call propagation: a function whose body (transitively, within
// the package) performs a blocking operation taints every call to it. Lock
// regions are tracked linearly per function scope — Lock() opens a region
// for its receiver expression, a plain Unlock() on the same expression
// closes it, a deferred Unlock holds to function end. Function literals
// are independent scopes (a closure built under a lock usually runs
// elsewhere).
var LockedIO = &Analyzer{
	Name: "lockedio",
	Doc: "flags blocking I/O (file writes/fsync, network, channel ops, sleeps) " +
		"reachable while a sync.Mutex/RWMutex is held",
	Run: runLockedIO,
}

// fileBlockingMethods are *os.File methods that hit the disk, also when
// called through a file-like interface (see fileLike).
var fileBlockingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true,
	"Close": true, "Truncate": true, "ReadFrom": true, "Read": true, "ReadAt": true,
}

// osBlockingFuncs are package-level os functions that hit the filesystem.
var osBlockingFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "Rename": true,
	"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true,
	"ReadFile": true, "WriteFile": true, "Truncate": true, "ReadDir": true,
}

// httpBlockingMethods are client round-trip entry points.
var httpBlockingMethods = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
}

// baseBlockingReason classifies one call as directly blocking, returning a
// human-readable reason or "".
func baseBlockingReason(pass *Pass, call *ast.CallExpr) string {
	f := calleeFunc(pass.Info, call)
	if f == nil {
		return ""
	}
	name := f.Name()
	if iface, ok := fileLike(f); ok && fileBlockingMethods[name] {
		return iface + "." + name + " (a file-like interface)"
	}
	if recv := recvNamed(f); recv != nil {
		switch {
		case namedIs(recv, "os", "File") && fileBlockingMethods[name]:
			return "(*os.File)." + name
		case recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "net":
			return "net." + recv.Obj().Name() + "." + name
		case namedIs(recv, "net/http", "Client") && httpBlockingMethods[name]:
			return "(*http.Client)." + name
		case namedIs(recv, "net/http", "ResponseWriter") && (name == "Write" || name == "WriteHeader"):
			return "http.ResponseWriter." + name
		case namedIs(recv, "io", "Writer") && name == "Write":
			return "io.Writer.Write (writer may be a file or socket)"
		case namedIs(recv, "io", "ReadWriter") && (name == "Write" || name == "Read"):
			return "io.ReadWriter." + name
		case namedIs(recv, "encoding/json", "Encoder") && name == "Encode":
			return "(*json.Encoder).Encode (underlying writer may block)"
		case namedIs(recv, "bufio", "Writer") && name == "Flush":
			return "(*bufio.Writer).Flush"
		case namedIs(recv, "sync", "WaitGroup") && name == "Wait":
			return "(*sync.WaitGroup).Wait"
		case namedIs(recv, "sync", "Cond") && name == "Wait":
			return "(*sync.Cond).Wait"
		}
		return ""
	}
	switch funcPkgPath(f) {
	case "os":
		if osBlockingFuncs[name] {
			return "os." + name
		}
	case "net":
		return "net." + name
	case "net/http":
		if httpBlockingMethods[name] {
			return "http." + name
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "fmt":
		if name == "Fprint" || name == "Fprintf" || name == "Fprintln" {
			if len(call.Args) > 0 && writerMayBlock(pass, call.Args[0]) {
				return "fmt." + name + " to a writer that may block"
			}
		}
	}
	return ""
}

// fileLike reports whether f is a method of an interface whose method
// set has Write plus Sync or Truncate, the mark of a file behind an
// interface, and names the interface.
func fileLike(f *types.Func) (string, bool) {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return "", false
	}
	has := func(name string) bool {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
		return false
	}
	if !has("Write") || !has("Sync") && !has("Truncate") {
		return "", false
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name(), true
	}
	return "interface", true
}

// writerMayBlock reports whether the static type of a writer argument can
// reach a file or socket: interfaces (io.Writer — the dynamic value is
// unknown) and os/net concrete types. In-memory sinks (bytes.Buffer,
// strings.Builder) cannot block.
func writerMayBlock(pass *Pass, w ast.Expr) bool {
	t := pass.TypeOf(w)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		pkg := ""
		if n.Obj().Pkg() != nil {
			pkg = n.Obj().Pkg().Path()
		}
		switch pkg {
		case "bytes", "strings":
			return false
		case "os", "net":
			return true
		}
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			return true
		}
		return false
	}
	_, isIface := t.Underlying().(*types.Interface)
	return isIface
}

// funcSummary is the package-local may-block verdict for one declared
// function.
type funcSummary struct {
	decl   *ast.FuncDecl
	blocks bool
	why    string
}

// runLockedIO builds package-local summaries, then scans every function
// scope for blocking operations inside held lock regions.
func runLockedIO(pass *Pass) error {
	summaries := make(map[*types.Func]*funcSummary)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			summaries[obj] = &funcSummary{decl: fd}
		}
	}
	// Seed with direct blocking operations.
	for _, s := range summaries {
		body := s.decl.Body
		ast.Inspect(body, func(n ast.Node) bool {
			if s.blocks {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				if why := baseBlockingReason(pass, x); why != "" {
					s.blocks, s.why = true, why
				}
			case *ast.SendStmt:
				if !inSelectComm(body, x.Pos()) {
					s.blocks, s.why = true, "channel send"
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !inSelectComm(body, x.Pos()) {
					s.blocks, s.why = true, "channel receive"
				}
			}
			return true
		})
	}
	// Propagate through package-local static calls to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, s := range summaries {
			if s.blocks {
				continue
			}
			ast.Inspect(s.decl.Body, func(n ast.Node) bool {
				if s.blocks {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pass.Info, call); callee != nil {
					if cs, ok := summaries[callee]; ok && cs.blocks {
						s.blocks = true
						s.why = callee.Name() + " → " + cs.why
						changed = true
					}
				}
				return true
			})
		}
	}
	// Scan lock regions in every function scope.
	eachFuncBody(pass.Files, func(name string, body *ast.BlockStmt) {
		scanLockRegions(pass, summaries, name, body)
	})
	return nil
}

// inSelectComm reports whether pos is the communication operation of a
// select clause — those are scheduled by select, and a select with a
// default case never blocks. (Approximation: any select comm is exempt.)
func inSelectComm(root ast.Node, pos token.Pos) bool {
	exempt := false
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			if pos >= cc.Comm.Pos() && pos <= cc.Comm.End() {
				exempt = true
			}
		}
		return !exempt
	})
	return exempt
}

// lockEvent is one position-ordered observation inside a function scope.
type lockEvent struct {
	pos  token.Pos
	kind int // 0 lock, 1 unlock, 2 blocking op
	key  string
	why  string
}

// scanLockRegions performs the linear held-region scan over one scope.
func scanLockRegions(pass *Pass, summaries map[*types.Func]*funcSummary, scope string, body *ast.BlockStmt) {
	var events []lockEvent
	inspectShallow(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock keeps the region open to scope end; a
			// deferred blocking call runs at return, possibly before the
			// deferred unlock — record it as a blocking op where it is
			// deferred. Other deferred calls are scanned normally.
			if key, isUnlock, _ := mutexOp(pass, x.Call); isUnlock && key != "" {
				return false // do not record: region stays held
			}
			return true
		case *ast.CallExpr:
			if key, isUnlock, isLock := mutexOp(pass, x); key != "" {
				if isLock {
					events = append(events, lockEvent{pos: x.Pos(), kind: 0, key: key})
				} else if isUnlock {
					events = append(events, lockEvent{pos: x.Pos(), kind: 1, key: key})
				}
				return true
			}
			if why := baseBlockingReason(pass, x); why != "" {
				events = append(events, lockEvent{pos: x.Pos(), kind: 2, why: why})
				return true
			}
			if callee := calleeFunc(pass.Info, x); callee != nil {
				if s, ok := summaries[callee]; ok && s.blocks {
					events = append(events, lockEvent{pos: x.Pos(), kind: 2,
						why: callee.Name() + " → " + s.why})
				}
			}
		case *ast.SendStmt:
			if !inSelectComm(body, x.Pos()) {
				events = append(events, lockEvent{pos: x.Pos(), kind: 2, why: "channel send"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !inSelectComm(body, x.Pos()) {
				events = append(events, lockEvent{pos: x.Pos(), kind: 2, why: "channel receive"})
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	held := map[string]int{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.key]++
		case 1:
			if held[ev.key] > 0 {
				held[ev.key]--
			}
		case 2:
			for key, n := range held {
				if n > 0 {
					pass.Reportf(ev.pos, "blocking operation (%s) while %q is locked in %s; move the I/O outside the critical section",
						ev.why, key, scope)
					break
				}
			}
		}
	}
}

// mutexOp classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver, returning the receiver expression
// text as the lock identity.
func mutexOp(pass *Pass, call *ast.CallExpr) (key string, isUnlock, isLock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false, false
	}
	recv := recvNamed(f)
	if recv == nil || !(namedIs(recv, "sync", "Mutex") || namedIs(recv, "sync", "RWMutex")) {
		return "", false, false
	}
	switch f.Name() {
	case "Lock", "RLock":
		return exprText(pass.Fset, sel.X), false, true
	case "Unlock", "RUnlock":
		return exprText(pass.Fset, sel.X), true, false
	}
	return "", false, false
}

// String renders the event kind for debugging.
func (e lockEvent) String() string {
	return fmt.Sprintf("%d@%d %s %s", e.kind, e.pos, e.key, e.why)
}
