package rangeset

import (
	"testing"

	"drms/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
