package netsim

// SetARPFloodBatching turns flood batching on or off for the tests outside
// the package, and returns the setting it replaced.
func SetARPFloodBatching(on bool) (was bool) {
	was, batchARPFloods = batchARPFloods, on
	return was
}
