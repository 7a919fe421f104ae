package obs

// Its tests use the standard library alone.
import _ "testing"
