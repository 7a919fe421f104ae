package msg

// The transport reaching up into the arrays built on it: the violation.
import _ "drms/internal/array"
