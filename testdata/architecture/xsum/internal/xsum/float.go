package xsum

// The standard library is a leaf's only import.
import _ "math/big"
