package main

// drmsfsck runs them.
import _ "drms/cmd/drmsfsck/internal/legacy"
