package coord

// A product package linking the gob-era readers: the violation.
import _ "drms/cmd/drmsfsck/internal/legacy"
