package msg_test

// An external test may import any layer.
import _ "drms/internal/array"
