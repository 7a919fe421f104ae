package ckpt_test

// The standard library is the reader's only import ("drms/internal/frame" is not).
import _ "compress/flate"
