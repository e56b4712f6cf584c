package xrpc

// FullMethodName renders the gRPC-style method path.
func FullMethodName(service, method string) string {
	return "/" + service + "/" + method
}
