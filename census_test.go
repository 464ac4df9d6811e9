package flowkv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusAllowed names, per option field that only tests set, a test (or
// test helper) that sets it. Each such field is a seam a test drives (a
// clock, a fake probe, a small threshold that makes a rare path
// reachable, a fault-injection backoff); the census checks that the
// named function really sets it.
var censusAllowed = map[string]string{
	"flowkv/internal/core.Options.LoadPartitionBytes":                 "TestAARWindowOutlivesCutsAsSealedFiles",
	"flowkv/internal/core.Options.ReadRetryBackoff":                   "runFaultCase",
	"flowkv/internal/core.ScrubOptions.BytesPerSec":                   "TestScrubPacerLimitsRate",
	"flowkv/internal/core.ScrubberOptions.OnSweep":                    "TestScrubberFindsPlantedRot",
	"flowkv/internal/core.SelfHealOptions.InitialBackoff":             "TestSelfHealerGivesUpCleanly",
	"flowkv/internal/core.SelfHealOptions.Interval":                   "TestSelfHealerHealsDegradedStore",
	"flowkv/internal/core.SelfHealOptions.MaxAttempts":                "TestSelfHealerGivesUpCleanly",
	"flowkv/internal/core.SelfHealOptions.MaxBackoff":                 "TestSelfHealerGivesUpCleanly",
	"flowkv/internal/core/aar.Options.FlushChunkBytes":                "TestGradualLoadingPartitions",
	"flowkv/internal/core/aar.Options.LoadPartitionBytes":             "TestGradualLoadingPartitions",
	"flowkv/internal/jobmanager.AutoRebalanceOptions.Clock":           "TestAutoRebalanceDrainsSlowSlot",
	"flowkv/internal/jobmanager.AutoRebalanceOptions.Interval":        "TestAutoRebalanceDrainsSlowSlot",
	"flowkv/internal/jobmanager.AutoRebalanceOptions.MaxMovesPerTick": "TestRebalanceTickScoring",
	"flowkv/internal/jobmanager.AutoRebalanceOptions.MinLatency":      "TestRebalanceTickScoring",
	"flowkv/internal/jobmanager.AutoRebalanceOptions.SlowFactor":      "TestRebalanceTickScoring",
	"flowkv/internal/jobmanager.Options.ProgressDeadline":             "runGrayHungSync",
	"flowkv/internal/jobmanager.ProberOptions.Clock":                  "TestAutoRebalanceTimesHealthySlotsWhileRunning",
	"flowkv/internal/jobmanager.ProberOptions.Confirmations":          "TestPoolProberHealsSlot",
	"flowkv/internal/jobmanager.ProberOptions.Interval":               "TestPoolProberHealsSlot",
	"flowkv/internal/jobmanager.ProberOptions.Probe":                  "TestPoolProberHealsSlot",
	"flowkv/internal/jobmanager.ProberOptions.ScrubIdle":              "TestProberScrubsIdleSlots",
	"flowkv/internal/jobmanager.Tenant.Migrations":                    "TestManagerRebalance",
	"flowkv/internal/lsm.Options.L0CompactionTrigger":                 "TestCompactionTriggersAndPreservesData",
	"flowkv/internal/memstore.Options.Sleeper":                        "TestGCPauseModel",
	"flowkv/internal/nexmark.GeneratorConfig.HotAuctionRatio":         "TestHotKeySkew",
	"flowkv/internal/nexmark/queries.Config.WatermarkEvery":           "runQuery",
	"flowkv/internal/spe.OperatorSpec.Profiler":                       "TestCustomWindowProfilerFeedsAdaptivePredictor",
	"flowkv/internal/spe.Pipeline.OnStats":                            "TestJobSelfHealRetriesCheckpoint",
	"flowkv/internal/spe.Pipeline.StatsEvery":                         "TestJobSelfHealRetriesCheckpoint",
}

// censusDirs are the trees whose non-test files count as callers.
var censusDirs = []string{"internal", "cmd", "examples", "bench"}

// censusNamed are option-shaped structs whose names carry no
// Options/Config/Spec suffix.
var censusNamed = map[string]bool{"Quota": true, "Policy": true, "Pipeline": true, "Job": true, "Tenant": true}

type censusField struct {
	key  string // import path "." type "." field
	file string // declaring file
	typ  string // the field's own type, "import path.Type" when named
}

type censusFile struct {
	path    string // import path of the file's package
	name    string
	ast     *ast.File
	imports map[string]string // local name -> import path
}

// TestEveryOptionHasACaller is the option census: every exported field
// of an exported *Options, *Config or *Spec struct under internal/ (and
// of Quota, Policy, Pipeline, Job and Tenant) must be set by some
// non-test file — as a composite-literal key, or by assignment outside
// the file declaring it, whose assignments fill in defaults — or be
// named in censusAllowed with a test that sets it. A field nothing sets
// is a constant spelled as a knob: it doubles the configurations to
// cover and hides the one value the code runs with. A setter that only
// forwards another census field (queries.Config.X into
// spe.Pipeline.X) counts only if that field is itself set.
func TestEveryOptionHasACaller(t *testing.T) {
	files := censusParse(t)
	fields := map[string]censusField{}
	byName := map[string][]string{} // field name -> keys
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "flowkv/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !censusType(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if !n.IsExported() {
							continue
						}
						k := f.path + "." + ts.Name.Name + "." + n.Name
						fields[k] = censusField{key: k, file: f.name, typ: f.typeKey(fl.Type)}
						byName[n.Name] = append(byName[n.Name], k)
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("census found no option fields")
	}

	// setters[key] lists, per non-test site that sets the field, the
	// census field its value forwards ("" for a real value).
	setters := map[string][]string{}
	testSets := map[string]map[string]bool{} // test func -> keys it sets
	for _, f := range files {
		for _, d := range f.ast.Decls {
			c := &censusScope{f: f, fields: fields, byName: byName, vars: map[string]string{}, elided: map[*ast.CompositeLit]ast.Expr{}}
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.fn = fd.Name.Name
			}
			c.record = func(keys []string, val ast.Expr, literal bool) {
				fw := c.resolve(val)
				for _, k := range keys {
					switch {
					case f.test():
						if testSets[c.fn] == nil {
							testSets[c.fn] = map[string]bool{}
						}
						testSets[c.fn][k] = true
					case literal || fields[k].file != f.name:
						setters[k] = append(setters[k], fw)
					}
				}
			}
			c.walk(d)
		}
	}

	// A field is set when one of its sites sets a real value or forwards
	// a field that is set; iterate to the fixed point.
	set := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for k, sites := range setters {
			if set[k] {
				continue
			}
			for _, fw := range sites {
				if fw == "" || set[fw] {
					set[k] = true
					changed = true
					break
				}
			}
		}
	}

	var unset []string
	for k := range fields {
		if set[k] {
			if tn, ok := censusAllowed[k]; ok {
				t.Errorf("%s: allowlisted for %s but a non-test file sets it; drop the entry", k, tn)
			}
			continue
		}
		if tn, ok := censusAllowed[k]; ok {
			if !testSets[tn][k] {
				t.Errorf("%s: allowlisted for %s, which does not set it", k, tn)
			}
			continue
		}
		unset = append(unset, k)
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("%s (declared in %s): no non-test caller sets it; make it a constant, derive it, or delete it", k, fields[k].file)
	}
	for k := range censusAllowed {
		if fields[k].key == "" {
			t.Errorf("censusAllowed names %s, which is not an option field", k)
		}
	}
}

// censusScope walks one top-level declaration, tracking which local
// names hold a value of a known struct type so that x.F resolves to one
// field. A name it cannot resolve on the left of an assignment counts
// for every census field so named (never a false alarm); on the right
// it counts as a real value.
type censusScope struct {
	f      *censusFile
	fn     string
	fields map[string]censusField
	byName map[string][]string
	vars   map[string]string // local name -> "import path.Type"
	elided map[*ast.CompositeLit]ast.Expr
	record func(keys []string, val ast.Expr, literal bool)
}

// selType is the named type of the value e denotes, "" when unknown.
func (c *censusScope) selType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return c.vars[e.Name]
	case *ast.SelectorExpr:
		if t := c.selType(e.X); t != "" {
			return c.fields[t+"."+e.Sel.Name].typ
		}
	case *ast.ParenExpr:
		return c.selType(e.X)
	case *ast.StarExpr:
		return c.selType(e.X)
	}
	return ""
}

// resolve names the census field the value val reads, "" when val is
// anything else.
func (c *censusScope) resolve(val ast.Expr) string {
	if sel, ok := val.(*ast.SelectorExpr); ok {
		if t := c.selType(sel.X); t != "" {
			return c.fields[t+"."+sel.Sel.Name].key
		}
	}
	return ""
}

// targets are the census fields an assignment to lhs sets: each field
// on the selector chain (a.B.C = v sets C and varies B).
func (c *censusScope) targets(lhs ast.Expr) []string {
	var keys []string
	for {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return keys
		}
		if t := c.selType(sel.X); t != "" {
			if k := c.fields[t+"."+sel.Sel.Name].key; k != "" {
				keys = append(keys, k)
			}
		} else {
			keys = append(keys, c.byName[sel.Sel.Name]...)
		}
		lhs = sel.X
	}
}

func (c *censusScope) bind(names []*ast.Ident, typ ast.Expr) {
	if t := c.f.typeKey(typ); t != "" {
		for _, n := range names {
			c.vars[n.Name] = t
		}
	}
}

func (c *censusScope) walk(d ast.Node) {
	ast.Inspect(d, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				for _, fl := range n.Recv.List {
					c.bind(fl.Names, fl.Type)
				}
			}
		case *ast.FuncType:
			if n.Params != nil {
				for _, fl := range n.Params.List {
					c.bind(fl.Names, fl.Type)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				c.bind(n.Names, n.Type)
			}
			for i, v := range n.Values {
				if i < len(n.Names) {
					c.bindValue(n.Names[i], v)
				}
			}
		case *ast.CompositeLit:
			c.lit(n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var val ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					val = n.Rhs[i]
				}
				if id, ok := lhs.(*ast.Ident); ok && val != nil {
					c.bindValue(id, val)
					continue
				}
				if n.Tok != token.DEFINE {
					c.record(c.targets(lhs), val, false)
				}
			}
		case *ast.IncDecStmt:
			c.record(c.targets(n.X), nil, false)
		}
		return true
	})
}

// bindValue types a local name from a composite literal it is given.
func (c *censusScope) bindValue(id *ast.Ident, v ast.Expr) {
	if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
		v = u.X
	}
	if lit, ok := v.(*ast.CompositeLit); ok && lit.Type != nil {
		if t := c.f.typeKey(lit.Type); t != "" {
			c.vars[id.Name] = t
		}
	}
}

// lit records the keys a composite literal of a census type sets, and
// hands its element type to the elided literals inside it.
func (c *censusScope) lit(n *ast.CompositeLit) {
	typ := n.Type
	if typ == nil {
		typ = c.elided[n]
	}
	if elem := censusElem(typ); elem != nil {
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil {
				c.elided[lit] = elem
			}
		}
	}
	tkey := c.f.typeKey(typ)
	for _, e := range n.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok {
			if k := c.fields[tkey+"."+id.Name].key; k != "" {
				c.record([]string{k}, kv.Value, true)
			}
		}
	}
}

func censusType(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return censusNamed[name] || strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")
}

// censusElem is the element type of a slice, array or map literal type,
// which its elements' elided literals take.
func censusElem(typ ast.Expr) ast.Expr {
	switch t := typ.(type) {
	case *ast.ArrayType:
		return t.Elt
	case *ast.MapType:
		return t.Value
	}
	return nil
}

func (f *censusFile) test() bool { return strings.HasSuffix(f.name, "_test.go") }

// typeKey resolves a named type expression to "import path.Type".
func (f *censusFile) typeKey(typ ast.Expr) string {
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch t := typ.(type) {
	case *ast.Ident:
		return f.path + "." + t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return f.imports[x.Name] + "." + t.Sel.Name
		}
	}
	return ""
}

func censusParse(t *testing.T) []*censusFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*censusFile
	for _, root := range censusDirs {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); n == "testdata" || n == "out" || strings.HasPrefix(n, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			cf := &censusFile{path: "flowkv/" + filepath.ToSlash(filepath.Dir(p)), name: filepath.ToSlash(p), ast: af, imports: map[string]string{}}
			for _, im := range af.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := ip[strings.LastIndex(ip, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				cf.imports[name] = ip
			}
			files = append(files, cf)
			return nil
		})
		if err != nil {
			t.Fatalf("census: %v", err)
		}
	}
	return files
}
