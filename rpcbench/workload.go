package main

import (
	"fmt"
	"math/rand"

	"repro/internal/transport"
	"repro/internal/wire"
)

// A workload is one closed-loop traffic mix: every slot of every
// session sends its next request only when its previous one completed,
// the way eRPC's callers (Raft, KV transactions) wait for replies.
type workload struct {
	name            string
	sessions        int
	slotsPerSession int
	reqType         uint8
	// reqPkts and respPkts size the messages in full packets; 0 means
	// a 32-byte single-packet message.
	reqPkts, respPkts int
}

// Request types, one handler each.
const (
	reqEcho  = 1 // response = request
	reqWrite = 2 // response = id + CRC-32C of the request
	reqRead  = 3 // response = id + seed-derived bytes
)

// smallMsg is the size of a single-packet request or response.
const smallMsg = 32

// dataPerPkt is the message bytes one packet carries on the UDP
// transport.
const dataPerPkt = transport.DefaultUDPMTU - wire.HeaderSize

// bulkPkts is the size of a bulk message in full packets: 45 packets
// of 1456 data bytes is 65520 bytes, just under 64 KiB.
const bulkPkts = 45

var workloads = []workload{
	// One RPC in flight: every RPC pays kernel TX, the reader→dispatch
	// handoff and a park/wake on both sides, with one-frame bursts. Not
	// in BENCHMARK.json: a run's throughput sits near 1.55 krps but one
	// run in four or five reads 2.2 to 3.0 krps, and its p50 lies
	// between two latency clusters (200 to 365 us between runs).
	{name: "ping", sessions: 1, slotsPerSession: 1, reqType: reqEcho},
	// Window 16 over two sessions: RX/TX bursts fill, so syscall
	// batching, GSO/GRO and zero-copy TX do most of their work. Not in
	// BENCHMARK.json: its throughput jumps between runs of the same
	// code (37 to 79 krps over five 30 s runs on 2 vCPUs).
	{name: "burst", sessions: 2, slotsPerSession: 8, reqType: reqEcho},
	// 64 KiB requests: per-packet cost, credit returns and server
	// reassembly dominate; the single-packet fast path is bypassed.
	{name: "bulk_write", sessions: 1, slotsPerSession: 2, reqType: reqWrite, reqPkts: bulkPkts},
	// 64 KiB responses: server multi-packet TX and the client's
	// request-for-response path.
	{name: "bulk_read", sessions: 1, slotsPerSession: 2, reqType: reqRead, respPkts: bulkPkts},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) window() int { return w.sessions * w.slotsPerSession }

func msgSize(pkts int) int {
	if pkts == 0 {
		return smallMsg
	}
	return pkts * dataPerPkt
}

func (w *workload) reqSize() int  { return msgSize(w.reqPkts) }
func (w *workload) respSize() int { return msgSize(w.respPkts) }

// inputs are everything the seed decides: the first request id and
// the payload bytes. Request ids count up from idBase; each request
// carries its id in its first 8 bytes, and so does each response.
type inputs struct {
	idBase  uint64
	payload []byte // request bytes after the id, at least a bulk request long
	// pattern is what a read response is cut from: the response to
	// request id is id followed by pattern[id%patternSlack:].
	pattern []byte
}

const patternSlack = 4096

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		idBase:  uint64(rng.Int63n(1<<40)) + 1,
		payload: make([]byte, bulkPkts*dataPerPkt),
		pattern: make([]byte, bulkPkts*dataPerPkt+patternSlack),
	}
	rng.Read(in.payload)
	rng.Read(in.pattern)
	return in
}

func (in *inputs) readResponse(id uint64, size int) []byte {
	off := int(id % patternSlack)
	return in.pattern[off : off+size-8]
}
