package obs

// The metrics leaf importing a layer: the violation.
import _ "drms/internal/msg"
