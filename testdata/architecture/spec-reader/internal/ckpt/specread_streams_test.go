package ckpt_test

// The test that writes what the reader reads may use the module.
import _ "drms/internal/ckpt"
