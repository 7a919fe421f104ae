package codec

// A piece codec importing a module package: the violation.
import _ "drms/internal/rangeset"
