package msg

// A list of transports keeps retired epochs alive: the violation.
type Runner struct {
	tr      Transport
	retired []Transport
}
