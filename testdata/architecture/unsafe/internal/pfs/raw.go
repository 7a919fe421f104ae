package pfs

// A second byte view of memory: the violation.
import _ "unsafe"
