package main

import (
	"io"
	"net"
	"time"

	"repro/internal/msg"
	msgnet "repro/internal/msg/net"
)

// loopbackPair is a two-part machine's message layer living inside this
// process: two routers, each partitioned onto its half of the processors,
// joined by two msg/net transports over real loopback TCP in the production
// mode (mesh, batching, binary codec). Only the transport and the routers
// are under test; no array manager runs on it.
type loopbackPair struct {
	r  [clusterParts]*msg.Router
	tr [clusterParts]*msgnet.Transport
}

func newLoopbackPair() *loopbackPair {
	lp := &loopbackPair{}
	t0, err := msgnet.Listen("127.0.0.1:0", machineP, clusterParts)
	must(err)
	t1, err := msgnet.Dial(t0.Addr(), machineP, clusterParts, 1)
	must(err)
	lp.tr = [clusterParts]*msgnet.Transport{t0, t1}
	for rank, tr := range lp.tr {
		lp.r[rank] = msg.NewRouter(machineP)
		lp.r[rank].SetTransport(tr, msgnet.HostedMap(machineP, clusterParts, rank))
		tr.Attach(lp.r[rank])
	}
	must(t0.WaitPeers(10 * time.Second))
	return lp
}

func (lp *loopbackPair) close() {
	lp.tr[0].Shutdown()
	for _, r := range lp.r {
		r.Close()
	}
	for _, tr := range lp.tr {
		tr.Wait()
	}
}

func (p *prober) netProbes() {
	p.loopbackFloor()

	lp := newLoopbackPair()
	// Processor 0 lives on part 0, processor machineP-1 on part 1.
	pp := startPingPong(lp.r[0], lp.r[1], 0, machineP-1)
	small := []float64{1}
	p.timed("net.rtt_small_us", "us", 1e-3, counts{msgs: 2, bytes: 2 * 8}, func(n int) {
		for i := 0; i < n; i++ {
			pp.ping(small)
		}
	})
	// Both ends live in this process, so the count covers sender and
	// receiver; a round trip is two messages.
	p.allocs("net.send_allocs", 2000, 2, func() { pp.ping(small) })

	piece := make([]float64, smallPiece)
	p.timed("net.rtt_2k_us", "us", 1e-3, counts{msgs: 2, bytes: 2 * 8 * smallPiece}, func(n int) {
		for i := 0; i < n; i++ {
			pp.ping(piece)
		}
	})

	// 64 sends back to back, then one reply: what the writer queue and
	// frame batching make of a burst.
	const burst = 64
	p.rate("net.burst_msgs_per_s", "1/s", burst, counts{msgs: burst + 1}, func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < burst-1; j++ {
				must(lp.r[0].Send(0, machineP-1, pp.tag, nil))
			}
			pp.ping(small)
		}
	})

	// One-way 2 MiB messages, eight in flight before the acknowledging
	// echo of a small tail message.
	const inFlight = 8
	big := make([]float64, largePiece)
	bigTag := msg.Tag{Class: msg.ClassData, Kind: 3}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := lp.r[1].RecvFrom(machineP-1, 0, bigTag); err != nil {
				return
			}
		}
	}()
	p.rate("net.stream_mb_s", "MB/s", inFlight*8*largePiece/1e6, counts{msgs: inFlight + 2, bytes: inFlight * 8 * largePiece}, func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < inFlight; j++ {
				must(lp.r[0].Send(0, machineP-1, bigTag, big))
			}
			pp.ping(small) // per-pair FIFO: the echo follows the last byte
		}
	})
	p.later(func() {
		lp.close()
		pp.stop.Wait()
		<-drained
	})
}

// loopbackFloor is a bare net.Conn 1-byte ping-pong over loopback TCP: the
// round trip the kernel charges before any of this repository's code runs.
func (p *prober) loopbackFloor() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [1]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	must(err)
	var b [1]byte
	p.timed("net.loopback_floor_us", "us", 1e-3, counts{msgs: 2, bytes: 2}, func(n int) {
		for i := 0; i < n; i++ {
			_, err := c.Write(b[:])
			must(err)
			_, err = io.ReadFull(c, b[:])
			must(err)
		}
	})
	p.later(func() {
		c.Close()
		<-echoed
		ln.Close()
	})
}
