package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestModulePackagesSkipsNestedModules pins that a directory with its
// own go.mod is another module, left out of the walk as ./... leaves it
// out of go vet.
func TestModulePackagesSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("a.go", "package m\n")
	write("inner/b.go", "package inner\n")
	write("bench/go.mod", "module bench\n")
	write("bench/main.go", "package main\n")
	write("bench/sub/c.go", "package sub\n")

	got, err := NewLoader(root, "m").ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"m", "m/inner"}; !slices.Equal(got, want) {
		t.Fatalf("ModulePackages = %v, want %v", got, want)
	}
}
