package main

// The rule covers cmd/ and internal/ only.
func fail(h interface{ Kill() }) { h.Kill() }
