package transport

// MessageName gives the registry tests the encode side's tag lookup.
var MessageName = messageName
