//go:build !linux || nommsg || !(amd64 || arm64)

package transport

// Portable fallback build: no segmentation offload and no SO_REUSEPORT
// sharding. NewUDP runs the per-packet engine (see udp.go), and
// ListenUDPShards lays its shards out on n distinct ports behind the
// same resolver instead (see listenShardsFallback). The `nommsg` CI
// leg exercises this build on Linux so it cannot rot
// (`go test -tags=nommsg ./...`).

import "net"

// GsoSupported reports whether the segmentation-offload engine is
// compiled into this binary.
const GsoSupported = false

// UDPGsoSupported reports whether the kernel accepts UDP_SEGMENT and
// UDP_GRO; without the engine compiled in the answer is always false.
func UDPGsoSupported() bool { return false }

// newGsoEngine is never selected on this build (newUDPConn checks
// GsoSupported first); it exists so udp.go compiles.
func newGsoEngine(u *UDP) udpEngine { return &perPacketEngine{u: u} }

// ReusePortSupported reports whether ListenUDPShards can bind all
// shards to one UDP address via SO_REUSEPORT.
const ReusePortSupported = false

// listenReusePort is never called on this build (ListenUDPShards
// checks ReusePortSupported first); it exists so udp.go compiles.
func listenReusePort(bind string) (*net.UDPConn, error) {
	panic("transport: listenReusePort without SO_REUSEPORT support")
}
