package array

// Every layer may fold into the exact sum.
import _ "drms/internal/xsum"
