package array

// rawBytes, the one byte view of a slice.
import _ "unsafe"
