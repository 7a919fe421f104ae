package array

// An array runs on the transport below it.
import (
	_ "drms/internal/msg"
	_ "drms/internal/rangeset"
)
