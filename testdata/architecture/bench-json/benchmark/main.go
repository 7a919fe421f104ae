package main

// The wall-clock benchmark writes the one result schema.
import _ "encoding/json"
