package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Detrand enforces determinism in the packages whose outputs the chaos and
// scrub tests replay byte-for-byte: placement decisions, policy
// transitions, classification, erasure geometry, failure schedules,
// workload generation, the checkpoint and fabric cost models and the storage
// engine's victim order and remote fault stream must be pure functions of
// their seeds. Global math/rand functions draw from a process-wide source,
// wall-clock seeding makes runs unreproducible, and raw time.Now()
// smuggles real time into simulated time — all three have caused "works on
// my machine" chaos failures in systems like this, which is why
// FoundationDB-style deterministic simulation bans them outright.
//
// In deterministic packages, Detrand flags:
//   - calls to package-level math/rand and math/rand/v2 functions (Intn,
//     Float64, Shuffle, ... — everything drawing from the global source);
//     rand.New, rand.NewSource and rand.NewZipf are allowed since they
//     construct injected generators
//   - rand.New seeded from the wall clock (time.Now anywhere in its
//     argument)
//   - raw time.Now() calls — clocks must be injected
type Detrand struct {
	// Packages overrides the deterministic package-name set (fixtures).
	Packages []string
}

// deterministicPkgs are the package names (all unique in this module) whose
// behavior must be a pure function of injected seeds and clocks.
var deterministicPkgs = []string{
	"placement", "policy", "classifier", "erasure", "geometry", "failure", "workload",
	"checkpoint", "simnet", "storage",
}

// detrandAllowed are the constructors of injected generators.
var detrandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// Name implements Analyzer.
func (Detrand) Name() string { return "detrand" }

// Doc implements Analyzer.
func (Detrand) Doc() string {
	return "deterministic packages use injected *rand.Rand and clocks, never global rand or time.Now"
}

// Run implements Analyzer.
func (a Detrand) Run(prog *Program) []Diagnostic {
	names := a.Packages
	if names == nil {
		names = deterministicPkgs
	}
	inScope := make(map[string]bool, len(names))
	for _, n := range names {
		inScope[n] = true
	}
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if !inScope[pkg.Name] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				diags = append(diags, checkDetrandCall(pkg, call)...)
				return true
			})
		}
	}
	return diags
}

func checkDetrandCall(pkg *Package, call *ast.CallExpr) []Diagnostic {
	f := calleeFunc(pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	pkgPath := f.Pkg().Path()
	switch pkgPath {
	case "math/rand", "math/rand/v2":
		if sig.Recv() != nil {
			return nil // methods on an injected *rand.Rand are the point
		}
		if detrandAllowed[f.Name()] {
			if f.Name() == "New" && exprContainsTimeNow(pkg, call) {
				return []Diagnostic{{
					Pos:      call.Pos(),
					Analyzer: "detrand",
					Message:  "rand.New seeded from the wall clock: use an injected seed for reproducible runs",
				}}
			}
			return nil
		}
		return []Diagnostic{{
			Pos:      call.Pos(),
			Analyzer: "detrand",
			Message: fmt.Sprintf("global %s.%s draws from the process-wide source: inject a seeded *rand.Rand",
				f.Pkg().Name(), f.Name()),
		}}
	case "time":
		if sig.Recv() == nil && f.Name() == "Now" {
			return []Diagnostic{{
				Pos:      call.Pos(),
				Analyzer: "detrand",
				Message:  "raw time.Now() in a deterministic package: inject the clock",
			}}
		}
	}
	return nil
}

// exprContainsTimeNow reports whether any argument of the call transitively
// contains a time.Now() call.
func exprContainsTimeNow(pkg *Package, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pkg.Info, c)
			if f != nil && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Now" {
				if s, ok := f.Type().(*types.Signature); ok && s.Recv() == nil {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
