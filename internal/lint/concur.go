package lint

// Concurrency-discipline substrate shared by the lockorder and lockheld
// analyzers: a module-wide index of per-function summaries (which mutex
// classes a function acquires, which blocking operations it performs,
// which functions it calls) plus per-site events recorded together with
// the set of mutexes syntactically held at that site.
//
// The model is deliberately syntactic, with the conservative edges
// documented in DESIGN.md §10:
//
//   - Critical sections are tracked per statement list in source order:
//     Lock/RLock adds the lock expression to the held set, the matching
//     Unlock/RUnlock removes it, and defer x.Unlock() keeps the lock
//     held to the end of the function. Branch bodies (if/for/switch/
//     select cases) are analyzed with a copy of the held set, so
//     lock-state changes inside a branch do not leak past it — the repo
//     acquires hot-path locks unconditionally, so this loses nothing.
//   - Function literals bound to a local variable (try := func() {...})
//     become call-graph nodes reachable through calls of that variable.
//     Literals that are launched (go), deferred, or passed as arguments
//     are analyzed as independent roots with an empty held set.
//   - Calls through module-defined interfaces expand conservatively to
//     every named type in the module that implements the interface.
//     Dynamic calls through func values/fields and stdlib interfaces
//     (io.Writer et al.) are not tracked.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// heldLock is one currently-held mutex: its rendered expression (the
// identity used to match the Unlock) plus its class (see classify).
type heldLock struct {
	text  string
	class string
}

// heldSet is the ordered set of locks held at a program point.
type heldSet struct {
	locks []heldLock
}

func (s *heldSet) clone() *heldSet {
	return &heldSet{locks: append([]heldLock(nil), s.locks...)}
}

func (s *heldSet) snapshot() []heldLock {
	return append([]heldLock(nil), s.locks...)
}

func (s *heldSet) add(l heldLock) {
	for _, h := range s.locks {
		if h.text == l.text {
			return // re-entry on the same expression: outer section already covers it
		}
	}
	s.locks = append(s.locks, l)
}

func (s *heldSet) remove(text string) {
	for i := len(s.locks) - 1; i >= 0; i-- {
		if s.locks[i].text == text {
			s.locks = append(s.locks[:i], s.locks[i+1:]...)
			return
		}
	}
}

// concCall is one resolved call edge out of a function.
type concCall struct {
	label string // rendered callee expression, for messages

	obj   types.Object     // static callee (func/method, or the var a closure is bound to)
	iface *types.Interface // module-defined interface, expanded in finalize
	mname string

	targets []*concNode // filled by finalize
}

// concTrace is how a transitive fact (acquires class C / may block)
// reaches a function: the call chain walked, ending at the fact.
type concTrace struct {
	what string   // blocking-op description (transBlock only)
	via  []string // callee display names along the chain
}

func (t *concTrace) chain() string {
	if len(t.via) == 0 {
		return ""
	}
	return " via " + strings.Join(t.via, " -> ")
}

// concEvent records an acquisition, blocking op, or call that happened
// while at least one lock was held.
type concEvent struct {
	pos  token.Pos
	what string    // blocking description (block events)
	acq  heldLock  // acquired lock (acquire events)
	call *concCall // outgoing edge (call events)
	held []heldLock
}

// concNode is the summary of one function, method, or function literal.
type concNode struct {
	pkg  *Package
	name string

	calls []*concCall

	acqEvents   []concEvent // acquisitions with locks already held
	blockEvents []concEvent // blocking ops under a lock
	callEvents  []concEvent // calls made under a lock

	// Seeded with the function's own acquisitions and first blocking op,
	// then closed over its calls by finalize.
	transAcq   map[string]*concTrace // classes acquired, directly or through calls
	transBlock *concTrace            // some blocking op is reachable
}

// concState is built once per Run and shared by lockorder and lockheld.
type concState struct {
	nodes     []*concNode
	index     map[types.Object]*concNode // decl object (or closure binding var) -> node
	loaded    map[*types.Package]*Package
	seen      map[*Package]bool
	ifaceMemo map[ifaceKey][]*concNode
	finalized bool
}

type ifaceKey struct {
	iface *types.Interface
	mname string
}

func newConcState() *concState {
	return &concState{
		index:     make(map[types.Object]*concNode),
		loaded:    make(map[*types.Package]*Package),
		seen:      make(map[*Package]bool),
		ifaceMemo: make(map[ifaceKey][]*concNode),
	}
}

func (cs *concState) newNode(pkg *Package, name string) *concNode {
	n := &concNode{
		pkg:      pkg,
		name:     name,
		transAcq: make(map[string]*concTrace),
	}
	cs.nodes = append(cs.nodes, n)
	return n
}

// collect walks one package's functions. Both checks call it; the seen
// map makes the second call a no-op.
func (cs *concState) collect(pkg *Package) {
	if cs.seen[pkg] {
		return
	}
	cs.seen[pkg] = true
	if pkg.Types != nil {
		cs.loaded[pkg.Types] = pkg
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := cs.newNode(pkg, funcDisplayName(pkg, fd))
			if obj := pkg.TypesInfo.Defs[fd.Name]; obj != nil {
				cs.index[obj] = node
			}
			w := &concWalker{cs: cs, pkg: pkg, node: node}
			w.stmts(fd.Body.List, &heldSet{})
			w.drainQueue()
		}
	}
}

func funcDisplayName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return pkg.Name + ".(" + exprText(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return pkg.Name + "." + fd.Name.Name
}

// litCtx is a function literal queued for analysis as its own node.
type litCtx struct {
	lit  *ast.FuncLit
	name string
	bind types.Object // local var the literal is bound to, if any
}

// concWalker analyzes one function body, tracking the held set.
type concWalker struct {
	cs    *concState
	pkg   *Package
	node  *concNode
	queue []litCtx
}

// drainQueue analyzes the literals queued while walking, each as an
// independent node with an empty held set (they run in their own
// goroutine / deferred / callback context).
func (w *concWalker) drainQueue() {
	for len(w.queue) > 0 {
		lc := w.queue[0]
		w.queue = w.queue[1:]
		n := w.cs.newNode(w.pkg, lc.name)
		if lc.bind != nil {
			if _, dup := w.cs.index[lc.bind]; dup {
				// The same var is bound to two literals: calls through it
				// are ambiguous, so drop the binding rather than guess.
				w.cs.index[lc.bind] = nil
			} else {
				w.cs.index[lc.bind] = n
			}
		}
		w.node = n
		w.stmts(lc.lit.Body.List, &heldSet{})
	}
}

func (w *concWalker) info() *types.Info { return w.pkg.TypesInfo }

// stmts walks a statement list in source order, mutating held.
func (w *concWalker) stmts(list []ast.Stmt, held *heldSet) {
	for _, st := range list {
		w.stmt(st, held)
	}
}

func (w *concWalker) stmt(st ast.Stmt, held *heldSet) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		w.expr(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			// A literal assigned to a plain local var becomes a callable
			// node; calls of that var resolve to it.
			if lit, ok := e.(*ast.FuncLit); ok && len(st.Lhs) == len(st.Rhs) {
				if id, ok := st.Lhs[indexOf(st.Rhs, e)].(*ast.Ident); ok {
					w.queueLit(lit, w.info().ObjectOf(id))
					continue
				}
			}
			w.expr(e, held)
		}
		for _, e := range st.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if lit, ok := v.(*ast.FuncLit); ok && i < len(vs.Names) {
						w.queueLit(lit, w.info().ObjectOf(vs.Names[i]))
						continue
					}
					w.expr(v, held)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.expr(st.X, held)
	case *ast.SendStmt:
		w.expr(st.Chan, held)
		w.expr(st.Value, held)
		w.block(st.Arrow, "channel send", held)
	case *ast.GoStmt:
		// The goroutine body runs concurrently, outside this critical
		// section; only argument evaluation happens here.
		w.callParts(st.Call, held, false)
	case *ast.DeferStmt:
		if w.deferredUnlock(st.Call, held) {
			break
		}
		w.callParts(st.Call, held, false)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.stmts(st.Body.List, held.clone())
		if st.Else != nil {
			w.stmt(st.Else, held.clone())
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		inner := held.clone()
		if st.Post != nil {
			w.stmt(st.Post, inner)
		}
		w.stmts(st.Body.List, inner)
	case *ast.RangeStmt:
		if t := w.typeOf(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.block(st.X.Pos(), "range over channel", held)
			}
		}
		w.expr(st.X, held)
		w.stmts(st.Body.List, held.clone())
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, held)
				}
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.stmt(st.Assign, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(st.Select, "select without default", held)
		}
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// The comm op itself is the select's blocking point, already
			// reported above; walk only nested calls in its operands.
			if cc.Comm != nil {
				w.commOperands(cc.Comm, held)
			}
			w.stmts(cc.Body, held.clone())
		}
	case *ast.BlockStmt:
		w.stmts(st.List, held.clone())
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	}
}

func indexOf(exprs []ast.Expr, e ast.Expr) int {
	for i, x := range exprs {
		if x == e {
			return i
		}
	}
	return 0
}

// commOperands walks the operand expressions of a select comm clause
// without re-reporting the send/receive itself.
func (w *concWalker) commOperands(comm ast.Stmt, held *heldSet) {
	switch comm := comm.(type) {
	case *ast.SendStmt:
		w.expr(comm.Chan, held)
		w.expr(comm.Value, held)
	case *ast.AssignStmt:
		for _, e := range comm.Rhs {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.expr(u.X, held)
				continue
			}
			w.expr(e, held)
		}
	case *ast.ExprStmt:
		if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.expr(u.X, held)
		}
	}
}

func (w *concWalker) queueLit(lit *ast.FuncLit, bind types.Object) {
	name := w.node.name + ".func"
	if bind != nil {
		name = w.node.name + "$" + bind.Name()
	}
	w.queue = append(w.queue, litCtx{lit: lit, name: name, bind: bind})
}

func (w *concWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

// expr walks an expression, recording lock transitions, blocking ops,
// and call edges.
func (w *concWalker) expr(e ast.Expr, held *heldSet) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, held)
	case *ast.FuncLit:
		// Un-invoked literal reaching here is stored/passed somewhere:
		// analyze as an independent root.
		w.queueLit(e, nil)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.block(e.OpPos, "channel receive", held)
		}
		w.expr(e.X, held)
	case *ast.BinaryExpr:
		w.expr(e.X, held)
		w.expr(e.Y, held)
	case *ast.ParenExpr:
		w.expr(e.X, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.SelectorExpr:
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.expr(e.X, held)
		w.expr(e.Index, held)
	case *ast.IndexListExpr:
		w.expr(e.X, held)
	case *ast.SliceExpr:
		w.expr(e.X, held)
		w.expr(e.Low, held)
		w.expr(e.High, held)
		w.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, held)
				continue
			}
			w.expr(el, held)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value, held)
	}
}

// call classifies one call: lock transition, direct blocking op, or a
// call edge into the graph. An IIFE's body runs inline under the
// current held set.
func (w *concWalker) call(c *ast.CallExpr, held *heldSet) {
	if lit, ok := c.Fun.(*ast.FuncLit); ok {
		for _, a := range c.Args {
			w.expr(a, held)
		}
		w.stmts(lit.Body.List, held) // IIFE: same critical section
		return
	}

	if sel, ok := c.Fun.(*ast.SelectorExpr); ok && w.isMutexRecv(sel) {
		text := exprText(sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock":
			l := heldLock{text: text, class: w.classify(sel.X)}
			if len(held.locks) > 0 {
				w.node.acqEvents = append(w.node.acqEvents,
					concEvent{pos: c.Pos(), acq: l, held: held.snapshot()})
			}
			if _, ok := w.node.transAcq[l.class]; !ok {
				w.node.transAcq[l.class] = &concTrace{}
			}
			held.add(l)
			return
		case "Unlock", "RUnlock":
			held.remove(text)
			return
		}
	}

	if what := w.blockingCall(c); what != "" {
		w.block(c.Pos(), what, held)
		for _, a := range c.Args {
			w.expr(a, held)
		}
		return
	}

	w.callParts(c, held, true)
}

// callParts records the call edge (when resolvable and wanted) and
// walks the callee/argument expressions.
func (w *concWalker) callParts(c *ast.CallExpr, held *heldSet, edge bool) {
	if edge {
		w.resolveEdge(c, held)
	} else if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X, held)
	}
	for _, a := range c.Args {
		if lit, ok := a.(*ast.FuncLit); ok {
			// Callback literal: runs in the callee's context, not here.
			w.queueLit(lit, nil)
			continue
		}
		w.expr(a, held)
	}
}

// resolveEdge records a call-graph edge for statically resolvable
// callees: same-module functions/methods, closure bindings, and
// module-defined interface methods (expanded later).
func (w *concWalker) resolveEdge(c *ast.CallExpr, held *heldSet) {
	info := w.info()
	var edge *concCall
	switch fun := c.Fun.(type) {
	case *ast.Ident:
		switch o := info.Uses[fun].(type) {
		case *types.Func:
			edge = &concCall{obj: originOf(o)}
		case *types.Var:
			edge = &concCall{obj: o} // possibly a bound closure
		}
	case *ast.SelectorExpr:
		w.expr(fun.X, held)
		if s, ok := info.Selections[fun]; ok {
			if f, ok := s.Obj().(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil {
					if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
						if tx := w.typeOf(fun.X); tx != nil && w.moduleOwned(f.Pkg()) {
							if ifc, ok := tx.Underlying().(*types.Interface); ok {
								edge = &concCall{iface: ifc, mname: f.Name()}
							}
						}
					} else {
						edge = &concCall{obj: originOf(f)}
					}
				}
			}
		} else if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			edge = &concCall{obj: originOf(f)} // pkg-qualified function
		}
	default:
		w.expr(c.Fun, held)
	}
	if edge != nil {
		edge.label = exprText(c.Fun)
		w.node.calls = append(w.node.calls, edge)
		if len(held.locks) > 0 {
			w.node.callEvents = append(w.node.callEvents,
				concEvent{pos: c.Pos(), call: edge, held: held.snapshot()})
		}
	}
}

func originOf(f *types.Func) *types.Func {
	if o := f.Origin(); o != nil {
		return o
	}
	return f
}

// moduleOwned reports whether tp is a package loaded in this run (i.e.
// part of the module, not stdlib). Topological load order guarantees a
// package's dependencies are already registered when it is collected.
func (cs *concState) loadedPkg(tp *types.Package) bool {
	return tp != nil && cs.loaded[tp] != nil
}

func (w *concWalker) moduleOwned(tp *types.Package) bool {
	return tp == w.pkg.Types || w.cs.loadedPkg(tp)
}

// isMutexRecv reports whether sel selects a method on sync.Mutex or
// sync.RWMutex (possibly through a pointer).
func (w *concWalker) isMutexRecv(sel *ast.SelectorExpr) bool {
	t := w.typeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// classify maps a lock expression to its class. A field selected from
// a value of a named type is keyed "pkgName.TypeName.fieldName", so all
// instances share one class; any other mutex is its own class, keyed by
// its declaring variable or, lacking one, by its expression.
func (w *concWalker) classify(x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if named := namedOf(w.typeOf(sel.X)); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + sel.Sel.Name
		}
	}
	if id, ok := x.(*ast.Ident); ok {
		if obj := w.info().ObjectOf(id); obj != nil && obj.Pkg() != nil {
			pos := w.pkg.Fset.Position(obj.Pos())
			return fmt.Sprintf("%s.%s@%s:%d", obj.Pkg().Name(), obj.Name(), filepath.Base(pos.Filename), pos.Line)
		}
	}
	return w.pkg.Name + "." + exprText(x)
}

// deferredUnlock handles defer x.Unlock(): the lock stays held to the
// end of the function, which the source-order walk models by simply not
// removing it. Returns true when the call was a mutex unlock.
func (w *concWalker) deferredUnlock(c *ast.CallExpr, held *heldSet) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !w.isMutexRecv(sel) {
		return false
	}
	return sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock"
}

// block records a direct blocking operation.
func (w *concWalker) block(pos token.Pos, what string, held *heldSet) {
	if w.node.transBlock == nil {
		w.node.transBlock = &concTrace{what: what}
	}
	if len(held.locks) > 0 {
		w.node.blockEvents = append(w.node.blockEvents,
			concEvent{pos: pos, what: what, held: held.snapshot()})
	}
}

// blockingCall classifies calls that block by themselves: sync waits,
// network I/O, time.Sleep, and I/O helpers writing to a net connection.
func (w *concWalker) blockingCall(c *ast.CallExpr) string {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if path := w.pkgOf(sel.X); path != "" {
		switch path {
		case "net":
			if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
				return "net." + name
			}
		case "time":
			if name == "Sleep" {
				return "time.Sleep"
			}
		case "io":
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "WriteString", "ReadAll", "ReadFull", "ReadAtLeast":
				if w.firstArgNet(c) {
					return "io." + name + " on a net connection"
				}
			}
		case "fmt":
			if strings.HasPrefix(name, "Fprint") && w.firstArgNet(c) {
				return "fmt." + name + " on a net connection"
			}
		}
		return ""
	}
	recv := w.typeOf(sel.X)
	if recv == nil {
		return ""
	}
	if name == "Wait" && isSyncWaiter(recv) {
		return typeShort(recv) + ".Wait"
	}
	if fromNetPkg(recv) && !netNonBlocking[name] {
		return typeShort(recv) + "." + name
	}
	return ""
}

// netNonBlocking are net-type methods that complete locally: address
// accessors, deadline setters, and the net.Error predicates.
var netNonBlocking = set("Close", "LocalAddr", "RemoteAddr", "SetDeadline",
	"SetReadDeadline", "SetWriteDeadline", "Network", "String", "Addr",
	"Error", "Timeout", "Temporary", "Unwrap")

func (w *concWalker) pkgOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := w.info().Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func (w *concWalker) firstArgNet(c *ast.CallExpr) bool {
	return len(c.Args) > 0 && fromNetPkg(w.typeOf(c.Args[0]))
}

func isSyncWaiter(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "WaitGroup" || obj.Name() == "Cond"
}

func fromNetPkg(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func typeShort(t types.Type) string {
	if named := namedOf(t); named != nil {
		return named.Obj().Name()
	}
	return t.String()
}

// finalize resolves call targets (including conservative interface
// expansion) and propagates acquires/may-block facts to a fixpoint.
func (cs *concState) finalize() {
	if cs.finalized {
		return
	}
	cs.finalized = true

	for _, n := range cs.nodes {
		for _, c := range n.calls {
			switch {
			case c.obj != nil:
				if t := cs.index[c.obj]; t != nil {
					c.targets = []*concNode{t}
				}
			case c.iface != nil:
				c.targets = cs.implementations(c.iface, c.mname)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, n := range cs.nodes {
			for _, c := range n.calls {
				for _, t := range c.targets {
					for cls, tr := range t.transAcq {
						if _, ok := n.transAcq[cls]; !ok {
							n.transAcq[cls] = &concTrace{via: append([]string{t.name}, tr.via...)}
							changed = true
						}
					}
					if n.transBlock == nil && t.transBlock != nil {
						n.transBlock = &concTrace{
							what: t.transBlock.what,
							via:  append([]string{t.name}, t.transBlock.via...),
						}
						changed = true
					}
				}
			}
		}
	}
}

// implementations finds the method bodies a module-interface call can
// dispatch to: every named non-interface type in a loaded package whose
// value or pointer implements the interface.
func (cs *concState) implementations(ifc *types.Interface, mname string) []*concNode {
	key := ifaceKey{iface: ifc, mname: mname}
	if out, ok := cs.ifaceMemo[key]; ok {
		return out
	}
	var out []*concNode
	for tp := range cs.loaded {
		scope := tp.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			var t types.Type = named
			if !types.Implements(t, ifc) {
				t = types.NewPointer(named)
				if !types.Implements(t, ifc) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, tp, mname)
			f, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if n := cs.index[originOf(f)]; n != nil {
				out = append(out, n)
			}
		}
	}
	cs.ifaceMemo[key] = out
	return out
}

// heldText renders a held set for messages.
func heldText(held []heldLock) string {
	parts := make([]string, len(held))
	for i, h := range held {
		parts[i] = h.text
	}
	return strings.Join(parts, ", ")
}
