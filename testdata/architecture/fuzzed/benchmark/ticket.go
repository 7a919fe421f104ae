// Package main is outside the row's scope: the benchmark is its own
// contract.
package main

func decodeTicket(b []byte) int { return len(b) }
