package replay

// SerializeForTest exposes serializeForTest to the external test package.
var SerializeForTest = serializeForTest
