package obs

import (
	"testing"

	"drms/internal/leakcheck"
)

// A stdlib-only package's tests may import the leak check.
func TestMain(m *testing.M) { leakcheck.Main(m) }
