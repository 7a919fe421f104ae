package codec

// The standard library's flate is all a codec needs.
import _ "compress/flate"
