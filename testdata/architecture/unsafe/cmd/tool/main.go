package main

// The rule covers internal/ only.
import _ "unsafe"
