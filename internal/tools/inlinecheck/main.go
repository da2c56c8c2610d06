// Command inlinecheck verifies that the owner path pays for a disabled
// feature with one inlined field test rather than a call. Each check for
// an optional feature on Put/Get (the NUMA delay, the placement plan's
// candidates, the controller and recorder feedback, the membership
// redirect, the stats sampler and the stats timing fold) is a small
// method whose fast test the compiler inlines and whose work sits in an
// out-of-line half. A change that grows one of those methods past the
// inlining budget still passes every test; it only makes each operation
// a few ns slower. This command turns that into a build failure: it
// reads the compiler's -m diagnostics and fails unless each listed call
// site reports "inlining call to" each listed method.
//
// Usage, from the module root:
//
//	go build -gcflags=-m ./internal/core ./internal/keyed 2> inline.out
//	inlinecheck inline.out
//
// Exits non-zero with one line per missing inlining decision.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The methods that must inline, as the compiler's -m output names them.
// The stats Record methods hold their counters and the d >= 0 test in
// front of the timing fold, so an inlined one costs an untimed operation
// no call.
const (
	delay       = "numa.(*Delayer).Delay"
	direct      = "engine.(*Engine).DirectTarget"
	observe     = "engine.(*Engine).Observe"
	local       = "engine.(*Engine).ObserveLocal"
	place       = "engine.(*Membership).Place"
	begin       = "(*sampler).begin"
	add         = "metrics.(*PoolStats).RecordAdd"
	batchAdd    = "metrics.(*PoolStats).RecordBatchAdd"
	localRemove = "metrics.(*PoolStats).RecordLocalRemove"
	batchRemove = "metrics.(*PoolStats).RecordBatchLocalRemove"
)

// rule names one function and the calls that must inline inside it.
type rule struct {
	file  string   // source file, relative to the module root
	fn    string   // "Recv.Method", or "Func" for a plain function
	calls []string // callees as -m prints them after "inlining call to "
}

// rules are the owner-path call sites.
var rules = []rule{
	{"internal/core/handle.go", "Handle.Put", []string{begin, direct, place, delay, add}},
	{"internal/core/handle.go", "Handle.PutAll", []string{begin, direct, place, delay, batchAdd}},
	{"internal/core/handle.go", "Handle.TryPut", []string{begin, delay, add}},
	{"internal/core/handle.go", "Handle.TryGetLocal", []string{begin, delay, localRemove, local}},
	{"internal/core/handle.go", "Handle.Get", []string{begin, delay, localRemove, local}},
	{"internal/core/handle.go", "Handle.GetN", []string{begin, delay, batchRemove, local}},
	{"internal/core/handle.go", "Handle.remove", []string{observe}},
	{"internal/core/handle.go", "Handle.parkLocal", []string{place}},
	{"internal/core/handle.go", "substrate.Probe", []string{delay, place}},
	{"internal/keyed/keyed.go", "Handle.Put", []string{direct, place}},
	{"internal/keyed/keyed.go", "Handle.PutAll", []string{direct, place}},
	{"internal/keyed/keyed.go", "Handle.Get", []string{local}},
	{"internal/keyed/keyed.go", "Handle.remove", []string{local, observe}},
}

// inlined is one "inlining call to" diagnostic.
type inlined struct {
	file   string
	line   int
	callee string
}

// parseDiagnostics extracts the "inlining call to" lines from -m output.
func parseDiagnostics(r io.Reader) ([]inlined, error) {
	const marker = ": inlining call to "
	var out []inlined
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		text := sc.Text()
		pos, callee, ok := strings.Cut(text, marker)
		if !ok {
			continue
		}
		// pos is file:line:col.
		parts := strings.Split(pos, ":")
		if len(parts) < 3 {
			continue
		}
		line, err := strconv.Atoi(parts[len(parts)-2])
		if err != nil {
			continue
		}
		file := strings.Join(parts[:len(parts)-2], ":")
		out = append(out, inlined{filepath.ToSlash(file), line, strings.TrimSpace(callee)})
	}
	return out, sc.Err()
}

// funcName names a declaration as rules do: "Recv.Method" with the
// receiver's pointer and type parameters dropped, or the bare name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// funcLines maps each function declared in a source file to its first
// and last line.
func funcLines(path string) (map[string][2]int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	out := map[string][2]int{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out[funcName(fd)] = [2]int{fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	return out, nil
}

// sameFile reports whether a diagnostic's path names a rule's file; the
// compiler prints paths relative to the working directory or absolute.
func sameFile(diag, file string) bool {
	diag = strings.TrimPrefix(diag, "./")
	return diag == file || strings.HasSuffix(diag, "/"+file)
}

// check returns one violation per rule call that the diagnostics do not
// report inlined, reading the rules' source files under root.
func check(root string, rules []rule, diags []inlined) []string {
	var errs []string
	lines := map[string]map[string][2]int{}
	for _, r := range rules {
		fns, ok := lines[r.file]
		if !ok {
			var err error
			fns, err = funcLines(filepath.Join(root, r.file))
			if err != nil {
				errs = append(errs, err.Error())
			}
			lines[r.file] = fns
		}
		span, ok := fns[r.fn]
		if !ok {
			if fns != nil {
				errs = append(errs, fmt.Sprintf("%s: no function %s", r.file, r.fn))
			}
			continue
		}
		for _, c := range r.calls {
			found := false
			for _, d := range diags {
				if d.callee == c && d.line >= span[0] && d.line <= span[1] && sameFile(d.file, r.file) {
					found = true
					break
				}
			}
			if !found {
				errs = append(errs, fmt.Sprintf("%s:%d: %s: call to %s is not inlined", r.file, span[0], r.fn, c))
			}
		}
	}
	return errs
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: inlinecheck diagnostics.out")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diags, err := parseDiagnostics(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if errs := check(".", rules, diags); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, e)
		}
		os.Exit(1)
	}
	n := 0
	for _, r := range rules {
		n += len(r.calls)
	}
	fmt.Printf("inlinecheck: %d call sites inlined in %d functions\n", n, len(rules))
}
