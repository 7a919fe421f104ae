package main

import "drms/internal/msg"

// A probe runs its own transport outside the runner.
func probe(n int) msg.Transport { return msg.NewLocalTransport(n) }
