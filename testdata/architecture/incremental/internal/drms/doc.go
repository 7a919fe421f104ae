package drms

// IncrementalCheckpoint is gone; a comment or a string may name it.
const gone = "WriteDRMSIncremental and SkipPiece"
