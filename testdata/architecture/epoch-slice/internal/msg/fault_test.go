package msg

// A test may range over transports.
var kinds []Transport
