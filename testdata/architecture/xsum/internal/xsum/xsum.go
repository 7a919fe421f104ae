package xsum

// The exact sum importing a module package: the violation.
import _ "drms/internal/obs"
