package spec

import (
	"strings"
	"testing"
)

// FuzzParse drives the declaration parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip through String.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"array u float64 shape (5, 64, 64, 64) distribute (*, block, block, block) shadow (0, 2, 2, 2)",
		"array ids int32 shape (1000) distribute (cyclic(4))",
		"array v float64 shape (256, 256) distribute (block, block) onto (2, 4)",
		"array m float64 shape (10, 8) distribute (block(7, 3), block)",
		"array b uint8 shape (7) distribute (cyclic)",
		"array x float32 shape () distribute ()",
		"array",
		"array u float64 shape (4) distribute (block) shadow",
		"array u float64 shape (((4))) distribute (block)",
		"array \x00 float64 shape (4) distribute (block)",
		strings.Repeat("(", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// An accepted multi-line text re-parses from its specs' strings.
		if specs, err := ParseAll(line); err == nil {
			lines := make([]string, len(specs))
			for i, s := range specs {
				lines[i] = s.String()
			}
			if again, err := ParseAll(strings.Join(lines, "\n")); err != nil || len(again) != len(specs) {
				t.Fatalf("ParseAll of %q accepted %d specs; their strings parse to %d, %v", line, len(specs), len(again), err)
			}
		}
		s, err := Parse(line)
		if err != nil {
			return
		}
		// Accepted specs re-parse to themselves.
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("String() of accepted spec does not re-parse: %q -> %q: %v",
				line, s.String(), err)
		}
		if again.String() != s.String() {
			t.Fatalf("round-trip unstable: %q -> %q", s.String(), again.String())
		}
		// And can build a 1-task distribution or give a clean error.
		if _, err := s.Distribution(1); err == nil {
			d, err := s.Distribution(1)
			if err != nil || d.Tasks() != 1 {
				t.Fatalf("inconsistent Distribution: %v", err)
			}
		}
	})
}
