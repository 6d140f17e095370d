package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// moduleRoot locates the repository root (the directory holding go.mod),
// so the harness can build the real binaries no matter which package's
// test spawned it.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("cluster: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("cluster: not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// BuildBinaries compiles cmd/corec-server, cmd/corec-cli and
// cmd/corec-loadgen and returns the directory holding them. The build runs
// once per test process into a shared temp directory (Go's build cache
// makes the compile itself nearly free after the first fleet).
func BuildBinaries() (string, error) {
	buildOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			buildErr = err
			return
		}
		out, err := os.MkdirTemp("", "corec-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", out+string(filepath.Separator), "./cmd/corec-server", "./cmd/corec-cli", "./cmd/corec-loadgen")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("cluster: building binaries: %w\n%s", err, msg)
			_ = os.RemoveAll(out) // failed build leaves nothing useful
			return
		}
		buildDir = out
	})
	return buildDir, buildErr
}

// FreePortBase probes for a base port such that base..base+n-1 are all
// bindable right now. The base is drawn randomly from a high range so
// fleets spawned by concurrently running test packages are unlikely to
// collide; the bind probe catches the rest. (A probed port can in theory
// be taken before the fleet binds it — the fleet's readiness wait turns
// that unlikely race into a startup error, not silent corruption.)
func FreePortBase(n int) (int, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<20))
	for attempt := 0; attempt < 64; attempt++ {
		base := 20000 + rng.Intn(30000)
		ok := true
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			_ = ln.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("cluster: no free port range of %d found", n)
}
