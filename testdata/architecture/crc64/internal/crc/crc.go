package crc

// The one implementation.
import _ "hash/crc64"
