package stream

// A second CRC-64: the violation.
import _ "hash/crc64"
