package ckpt_test

// The independent reader leaning on the package it checks: the violation.
import _ "drms/internal/ckpt"
