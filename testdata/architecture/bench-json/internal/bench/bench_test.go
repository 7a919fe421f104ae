package bench

// A test may decode JSON.
import _ "encoding/json"
