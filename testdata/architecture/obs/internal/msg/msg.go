package msg

// Every layer imports obs.
import _ "drms/internal/obs"
