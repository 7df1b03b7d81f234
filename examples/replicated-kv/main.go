// Replicated-kv: the paper's §7.1 scenario as a runnable example — a
// 3-way Raft-replicated in-memory key-value store over eRPC on the
// simulated CX5 cluster, with a client that measures replicated PUT
// latency. This is the workload that achieves 5.5 µs three-way
// replication in the paper.
//
//	go run ./examples/replicated-kv
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/raft"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
)

const reqPut = 20

type replica struct {
	ep      *raft.Endpoint
	store   *kv.Store
	pending map[uint64]*core.ReqContext
}

func main() {
	sched := sim.NewScheduler(1)
	fab, err := simnet.New(sched, simnet.Config{
		Profile:  simnet.CX5(),
		Topology: simnet.SingleSwitch(4),
		Jitter:   800 * sim.Nanosecond,
	})
	if err != nil {
		panic(err)
	}

	nx := core.NewNexus()
	raft.RegisterHandlers(nx)
	byRpc := map[*core.Rpc]*replica{}
	nx.Register(reqPut, core.Handler{Fn: func(ctx *core.ReqContext) {
		r := byRpc[ctx.Rpc()]
		if r.ep.Node.State() != raft.Leader {
			out := ctx.AllocResponse(1)
			out[0] = 0xFF
			ctx.EnqueueResponse()
			return
		}
		idx, err := r.ep.Node.Propose(append([]byte(nil), ctx.Req...))
		if err == nil {
			r.pending[idx] = ctx // respond on commit (nested-RPC pattern)
			return
		}
		out := ctx.AllocResponse(1)
		out[0] = 0xFF
		ctx.EnqueueResponse()
	}})

	prof := simnet.CX5()
	mkRpc := func(node int) *core.Rpc {
		return core.NewRpc(nx, core.Config{
			Transport:    fab.AttachEndpoint(node),
			Clock:        sched,
			Sched:        sched,
			LinkRateGbps: prof.LinkGbps,
			CPUScale:     prof.CPUScale,
			TxPipeline:   prof.SWPipeline,
		})
	}

	rpcs := []*core.Rpc{mkRpc(0), mkRpc(1), mkRpc(2)}
	replicas := make([]*replica, 3)
	for i := 0; i < 3; i++ {
		r := &replica{store: kv.New(), pending: map[uint64]*core.ReqContext{}}
		var peers []raft.Peer
		for j := 0; j < 3; j++ {
			if j == i {
				continue
			}
			sess, err := rpcs[i].CreateSession(rpcs[j].LocalAddr())
			if err != nil {
				panic(err)
			}
			peers = append(peers, raft.Peer{ID: j, Session: sess})
		}
		cfg := raft.Config{ID: i, Peers: []int{0, 1, 2}}
		cfg.CB.Apply = func(idx uint64, e raft.Entry) {
			if k, v, ok := kv.DecodePut(e.Data); ok {
				r.store.Put(k, v)
			}
			if ctx, ok := r.pending[idx]; ok {
				delete(r.pending, idx)
				out := ctx.AllocResponse(1)
				out[0] = 0
				ctx.EnqueueResponse()
			}
		}
		r.ep = raft.NewEndpoint(rpcs[i], sched, cfg, peers)
		byRpc[rpcs[i]] = r
		replicas[i] = r
		r.ep.Start()
	}

	// Elect a leader.
	leader := -1
	for leader < 0 {
		sched.RunUntil(sched.Now() + sim.Millisecond)
		for i, r := range replicas {
			if r.ep.Node.State() == raft.Leader {
				leader = i
			}
		}
	}
	fmt.Printf("replica %d elected leader (term %d)\n", leader, replicas[leader].ep.Node.Term())

	// Client: replicated PUTs, one outstanding.
	cli := mkRpc(3)
	sess, err := cli.CreateSession(rpcs[leader].LocalAddr())
	if err != nil {
		panic(err)
	}
	lat := stats.NewRecorder(1 << 16)
	rng := rand.New(rand.NewSource(7))
	key := make([]byte, 16)
	val := make([]byte, 64)
	req := cli.Alloc(128)
	resp := cli.Alloc(16)
	var issue func()
	issue = func() {
		binary.LittleEndian.PutUint32(key, uint32(rng.Intn(1_000_000)))
		cmd := kv.EncodePut(key, val)
		req.Resize(len(cmd))
		copy(req.Data(), cmd)
		start := sched.Now()
		cli.EnqueueRequest(sess, reqPut, req, resp, func(err error) {
			if err == nil && resp.Data()[0] == 0 {
				lat.Add(float64(sched.Now()-start) / 1000)
			}
			issue()
		})
	}
	issue()
	sched.RunUntil(sched.Now() + 20*sim.Millisecond)

	fmt.Printf("replicated PUT latency (µs): %s\n", lat.Summary())
	for i, r := range replicas {
		fmt.Printf("replica %d: %d keys, commit index %d\n", i, r.store.Len(), r.ep.Node.CommitIndex())
	}
}
