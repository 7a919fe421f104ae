package spec

import (
	"strings"
	"testing"

	"drms/internal/dist"
)

func mustParse(t *testing.T, line string) ArraySpec {
	t.Helper()
	s, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	return s
}

func TestParseFullDeclaration(t *testing.T) {
	s := mustParse(t, "array u float64 shape (5, 64, 64, 64) distribute (*, block, block, block) shadow (0, 2, 2, 2)")
	if s.Name != "u" || s.Kind != "float64" {
		t.Fatalf("%+v", s)
	}
	if len(s.Shape) != 4 || s.Shape[0] != 5 || s.Shape[3] != 64 {
		t.Fatalf("shape %v", s.Shape)
	}
	if s.Axes[0].Kind != AxisCollapsed || s.Axes[1].Kind != AxisBlock {
		t.Fatalf("axes %+v", s.Axes)
	}
	if s.Shadow[1] != 2 || s.Shadow[0] != 0 {
		t.Fatalf("shadow %v", s.Shadow)
	}
	if s.Grid != nil {
		t.Fatal("unexpected grid")
	}
}

func TestParseCyclicForms(t *testing.T) {
	s := mustParse(t, "array ids int32 shape (1000) distribute (cyclic)")
	if s.Axes[0].Kind != AxisCyclic || s.Axes[0].Block != 1 {
		t.Fatalf("%+v", s.Axes[0])
	}
	s = mustParse(t, "array w float32 shape (64, 64) distribute (cyclic(4), block)")
	if s.Axes[0].Block != 4 || s.Axes[1].Kind != AxisBlock {
		t.Fatalf("%+v", s.Axes)
	}
}

func TestParseOntoGrid(t *testing.T) {
	s := mustParse(t, "array v float64 shape (256, 256) distribute (block, block) onto (2, 4)")
	if s.Grid[0] != 2 || s.Grid[1] != 4 {
		t.Fatalf("grid %v", s.Grid)
	}
	d, err := s.Distribution(8)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Grid()
	if g[0] != 2 || g[1] != 4 {
		t.Fatalf("distribution grid %v", g)
	}
	if _, err := s.Distribution(6); err == nil {
		t.Fatal("grid/task mismatch accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"arrary u float64 shape (4) distribute (block)",
		"array u float64 shape (4)",
		"array u float64 shape (4) distribute (block, block)", // rank mismatch
		"array u complex shape (4) distribute (block)",
		"array u float64 shape (4) distribute (diagonal)",
		"array u float64 shape (4) distribute (block) shadow (1, 2)",
		"array u float64 shape (4) distribute (cyclic(0))",
		"array u float64 shape (0) distribute (block)",
		"array u float64 shape (4) distribute (block) frobnicate (1)",
		"array u float64 shape (4,) distribute (block)",
		"array u float64 shape (4) distribute (cyclic) shadow (1)", // shadow on cyclic
		"array u float64 shape (8, 8) distribute (*, block) onto (2, 2)",
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded", line)
		}
	}
}

func TestParseAllWithComments(t *testing.T) {
	text := `
# the solution and its right-hand side
array u float64 shape (5, 16, 16, 16) distribute (*, block, block, block) shadow (0, 2, 2, 2)
array rhs float64 shape (5, 16, 16, 16) distribute (*, block, block, block)

array flags uint8 shape (64) distribute (block)
`
	specs, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[2].Name != "flags" {
		t.Fatalf("%d specs", len(specs))
	}
	if _, err := ParseAll("array a float64 shape (4) distribute (block)\narray a float64 shape (4) distribute (block)"); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestDistributionBlockWithShadow(t *testing.T) {
	s := mustParse(t, "array u float64 shape (5, 12, 12, 12) distribute (*, block, block, block) shadow (0, 1, 1, 1)")
	d, err := s.Distribution(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tasks() != 4 || !covers(d) {
		t.Fatalf("tasks %d covers %v", d.Tasks(), covers(d))
	}
	// Component axis is never split.
	if d.Grid()[0] != 1 {
		t.Fatalf("grid %v", d.Grid())
	}
	// Shadow appears only on split axes.
	sh := d.Shadow()
	for ax := 1; ax < 4; ax++ {
		if d.Grid()[ax] > 1 && sh[ax] != 1 {
			t.Fatalf("axis %d split but unshadowed (%v / %v)", ax, d.Grid(), sh)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionCyclic(t *testing.T) {
	s := mustParse(t, "array ids int32 shape (100) distribute (cyclic(3))")
	d, err := s.Distribution(4)
	if err != nil {
		t.Fatal(err)
	}
	if !covers(d) || d.Tasks() != 4 {
		t.Fatal("cyclic distribution wrong")
	}
	// Task 0 owns elements 0,1,2, 12,13,14, ...
	if !d.Assigned(0).Axis(0).Contains(12) || d.Assigned(0).Axis(0).Contains(3) {
		t.Fatalf("assigned(0) = %v", d.Assigned(0))
	}
}

func TestDistributionCollapsedNeedsOneTask(t *testing.T) {
	s := mustParse(t, "array r float64 shape (32) distribute (*)")
	if _, err := s.Distribution(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Distribution(2); err == nil {
		t.Fatal("fully collapsed array distributed over 2 tasks")
	}
}

func TestStringRoundTrip(t *testing.T) {
	lines := []string{
		"array u float64 shape (5, 64, 64, 64) distribute (*, block, block, block) shadow (0, 2, 2, 2)",
		"array ids int32 shape (1000) distribute (cyclic(4))",
		"array v float64 shape (256, 256) distribute (block, block) onto (2, 4)",
		"array b uint8 shape (7) distribute (cyclic)",
	}
	for _, line := range lines {
		s := mustParse(t, line)
		again := mustParse(t, s.String())
		if again.String() != s.String() {
			t.Errorf("roundtrip: %q -> %q", s.String(), again.String())
		}
	}
}

func TestGlobalShape(t *testing.T) {
	s := mustParse(t, "array u float64 shape (3, 4) distribute (block, block)")
	g := s.Global()
	if g.Size() != 12 || !g.Contains([]int{2, 3}) || g.Contains([]int{3, 0}) {
		t.Fatalf("global %v", g)
	}
	if !strings.Contains(s.String(), "shape (3, 4)") {
		t.Fatal(s.String())
	}
}

func TestGenBlockSpec(t *testing.T) {
	s := mustParse(t, "array m float64 shape (10, 8) distribute (block(7, 3), block)")
	if len(s.Axes[0].Sizes) != 2 || s.Axes[0].Sizes[0] != 7 {
		t.Fatalf("sizes %v", s.Axes[0].Sizes)
	}
	// 2 fixed rows x factored columns: 4 tasks -> grid (2, 2).
	d, err := s.Distribution(4)
	if err != nil {
		t.Fatal(err)
	}
	if !covers(d) || d.Tasks() != 4 {
		t.Fatalf("covers %v tasks %d", covers(d), d.Tasks())
	}
	if d.Assigned(0).Axis(0).Size() != 7 {
		t.Fatalf("first row block = %v", d.Assigned(0).Axis(0))
	}
	// Round-trips through String.
	if again := mustParse(t, s.String()); again.String() != s.String() {
		t.Fatalf("roundtrip %q", s.String())
	}
	// Tasks not divisible by the fixed axis: clean error.
	if _, err := s.Distribution(3); err == nil {
		t.Fatal("indivisible task count accepted")
	}
	// Bad sums rejected at parse time.
	if _, err := Parse("array m float64 shape (10) distribute (block(7, 4))"); err == nil {
		t.Fatal("blocks exceeding extent accepted")
	}
	// Mixing gen-block and cyclic rejected when distributed.
	gb := mustParse(t, "array m float64 shape (10, 8) distribute (block(7, 3), cyclic)")
	if _, err := gb.Distribution(4); err == nil {
		t.Fatal("gen-block + cyclic mix accepted")
	}
}

// covers reports whether d assigns as many elements as its global
// section holds, each exactly once.
func covers(d *dist.Distribution) bool {
	n := 0
	for r := 0; r < d.Tasks(); r++ {
		n += d.Assigned(r).Size()
	}
	return n == d.Global().Size()
}
