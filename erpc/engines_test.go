package erpc_test

import (
	"repro/erpc"
	"repro/internal/transport"
)

// udpEngines lists the UDP syscall engines available to this test
// binary, so real-transport suites (adversity stress, alloc guard,
// loopback bench) run over each: the segmentation-offload gso engine
// where the build and kernel both support it, and the portable
// per-packet fallback always. A `-tags=nommsg` build reduces the list
// to the fallback alone — which is then also the engine behind the
// default constructors.
func udpEngines() []string {
	if erpc.UDPGsoSupported() {
		return []string{"gso", "per-packet"}
	}
	return []string{"per-packet"}
}

// newUDPTransportEngine binds one socket on the named engine.
func newUDPTransportEngine(engine string, addr erpc.Addr, bind string) (*transport.UDP, error) {
	if engine == "per-packet" {
		return erpc.NewUDPTransportPerPacket(addr, bind)
	}
	return erpc.NewUDPTransport(addr, bind)
}

// listenUDPEngine binds n endpoint sockets on the named engine.
func listenUDPEngine(engine string, node uint16, host string, basePort, n int) ([]*transport.UDP, error) {
	if engine == "per-packet" {
		return erpc.ListenUDPPerPacket(node, host, basePort, n)
	}
	return erpc.ListenUDP(node, host, basePort, n)
}
