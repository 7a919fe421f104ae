package main

import "drms/internal/leakcheck"

// A daemon that ends the process through the leak check: the violation.
var _ = leakcheck.Main
