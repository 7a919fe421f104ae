package crc

// The differential test against the standard library.
import _ "hash/crc64"
