package iwscan_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets builds and vets bench/, the benchmark module.
// It is a module of its own (bench/go.mod, `replace iwscan => ../`), so
// `go test ./...` here never compiles it: without this test a change to
// a name it imports from the main module is first seen when the
// benchmark fails to build. Offline, as bench/run.sh builds it.
func TestBenchModuleVets(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command on PATH (go test puts it there): %v", err)
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
