package main

// A second result schema: the violation.
import _ "encoding/json"
