package minipy

import (
	"strings"
	"testing"
)

// TestCompileSlotResolution checks that statically known names lower to
// slot-addressed ops while dynamic reads keep the name-path fallback.
func TestCompileSlotResolution(t *testing.T) {
	src := `x = 1

def f(a):
    y = a + x
    return y

print(f(2))
print(maybe_defined)
`
	mod, err := Parse("slots.py", src)
	if err != nil {
		t.Fatal(err)
	}
	listing := Compile(mod).Disasm()
	for _, want := range []string{
		"STORE_GLOBAL      slot",          // x = 1: module store by slot
		"LOAD_LOCAL        slot 0",        // a inside f
		"STORE_LOCAL",                     // y inside f
		"LOAD_GLOBAL_NAME  maybe_defined", // never assigned: dynamic path
	} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

// TestCompileIsTotal checks that constructs the tree-walker rejects at
// runtime still compile — to an opRaise with the same message — rather
// than failing the load.
func TestCompileIsTotal(t *testing.T) {
	for _, src := range []string{
		"break\n",
		"continue\n",
		"return 1\n",
		"1 = 2\n                 ",
	} {
		mod, err := Parse("total.py", src)
		if err != nil {
			continue // parser-rejected constructs are out of scope
		}
		if prog := Compile(mod); prog == nil {
			t.Errorf("Compile returned nil for %q", src)
		}
	}
}

// TestCompileMemoized checks that every interpreter for a module shares one
// compiled Program.
func TestCompileMemoized(t *testing.T) {
	mod, err := Parse("memo.py", "x = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if p1, p2 := mod.program(), mod.program(); p1 != p2 {
		t.Fatal("program() not memoized")
	}
}

// TestDisasmDeterministic checks the listing is stable across fresh
// compiles of the same source (the golden-file test depends on this).
func TestDisasmDeterministic(t *testing.T) {
	src := "d = {\"k\": [1, 2]}\nfor i in range(3):\n    d[\"k\"].append(i)\nprint(d)\n"
	m1, err := Parse("d.py", src)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := Parse("d.py", src)
	if l1, l2 := Compile(m1).Disasm(), Compile(m2).Disasm(); l1 != l2 {
		t.Fatalf("listing not deterministic:\n%s\n---\n%s", l1, l2)
	}
}
