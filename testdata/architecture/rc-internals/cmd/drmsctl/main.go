package main

// A tool killing an incarnation around the coordinator: the violation.
func stop(h interface{ Kill() }) { h.Kill() }
