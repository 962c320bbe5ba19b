package minic

import (
	"reflect"
	"sync"
	"testing"

	"easytracker/internal/isa"
	"easytracker/internal/rt"
)

// runtimePrograms use the runtime in different ways: printf alone, the
// allocator, structs on the heap, and globals and strings beside it.
var runtimePrograms = []string{
	`int main() { printf("%d\n", 7); return 0; }`,
	`int main() {
    int* xs = (int*)malloc(4 * sizeof(int));
    xs[3] = 9;
    free(xs);
    return 0;
}`,
	`struct node { int v; struct node* next; };
int main() {
    struct node* n = (struct node*)calloc(1, sizeof(struct node));
    n->next = (struct node*)malloc(sizeof(struct node));
    n->next->v = 3;
    n = (struct node*)realloc(n, 2 * sizeof(struct node));
    return n->next->v;
}`,
	`int total = 5;
char* name = "et";
int main() {
    total += 1;
    puts(name);
    return total;
}`,
}

// sameImage reports whether two compiles of one source produced the same
// code, line table, data image and globals.
func sameImage(a, b *isa.Program) bool {
	return reflect.DeepEqual(a.Instrs, b.Instrs) && reflect.DeepEqual(a.Lines, b.Lines) &&
		reflect.DeepEqual(a.Data, b.Data) && reflect.DeepEqual(a.Globals, b.Globals)
}

func TestSharedRuntimeAcrossConcurrentCompiles(t *testing.T) {
	want := make([]*isa.Program, len(runtimePrograms))
	for i, src := range runtimePrograms {
		p, err := Compile("p.c", src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		want[i] = p
	}
	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(runtimePrograms)
				p, err := Compile("p.c", runtimePrograms[i])
				if err != nil {
					t.Errorf("worker %d, program %d: %v", w, i, err)
					return
				}
				if !sameImage(p, want[i]) {
					t.Errorf("worker %d: program %d compiled to a different image", w, i)
				}
			}
		}(w)
	}
	wg.Wait()

	shared, err := runtimeAST()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ParseFile("<runtime>", rt.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("compiling changed the shared runtime AST")
	}
}
