package lint

import (
	"go/ast"
	"go/types"
)

// detrand enforces determinism in the packages whose outputs the chaos and
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
// In deterministic packages, detrand flags:
//   - calls to package-level math/rand and math/rand/v2 functions (Intn,
//     Float64, Shuffle, ... — everything drawing from the global source);
//     rand.New, rand.NewSource and rand.NewZipf are allowed since they
//     construct injected generators
//   - rand.New seeded from the wall clock (time.Now anywhere in its
//     argument)
//   - raw time.Now() calls — clocks must be injected
//
// The deterministic packages are named below; each name is unique in this
// module.
var detrand = Analyzer{
	Name: "detrand",
	Doc:  "deterministic packages use injected *rand.Rand and clocks, never global rand or time.Now",
	covers: only("placement", "policy", "classifier", "erasure", "geometry", "failure", "workload",
		"checkpoint", "simnet", "storage"),
	node: detrandCall,
}

// detrandAllowed are the constructors of injected generators.
var detrandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func detrandCall(p *pass, n ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	f := calleeFunc(p.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch {
		case f.Type().(*types.Signature).Recv() != nil:
			// Methods on an injected *rand.Rand are the point.
		case f.Name() == "New" && exprContainsTimeNow(p.Info, call):
			p.report(call.Pos(), "rand.New seeded from the wall clock: use an injected seed for reproducible runs")
		case !detrandAllowed[f.Name()]:
			p.report(call.Pos(), "global %s.%s draws from the process-wide source: inject a seeded *rand.Rand",
				f.Pkg().Name(), f.Name())
		}
	case "time":
		if funcPath(f) == "time.Now" {
			p.report(call.Pos(), "raw time.Now() in a deterministic package: inject the clock")
		}
	}
}

// exprContainsTimeNow reports whether any argument of the call transitively
// contains a time.Now() call.
func exprContainsTimeNow(info *types.Info, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if f := calleeFunc(info, c); f != nil && funcPath(f) == "time.Now" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
