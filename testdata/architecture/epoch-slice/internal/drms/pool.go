package drms

import "drms/internal/msg"

// The rule covers internal/msg only.
var pool []msg.Transport
