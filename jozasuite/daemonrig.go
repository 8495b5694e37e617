package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"joza"
	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/trace"
)

// connCounters counts the I/O calls and bytes crossing a set of
// connections. Each Read or Write is one syscall on a TCP socket, so the
// call counts stand in for the syscall count.
type connCounters struct {
	reads, writes         atomic.Uint64
	readBytes, writeBytes atomic.Uint64
}

type countingConn struct {
	net.Conn
	n *connCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.reads.Add(1)
	c.n.readBytes.Add(uint64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.writeBytes.Add(uint64(k))
	return k, err
}

type countingListener struct {
	net.Listener
	n *connCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

// daemonRig is the remote deployment in one process: a jozad server on
// loopback TCP serving PTI and profiles, the default two-connection pool
// with no micro-batcher, and a HybridClient running
// NTI in process. Both ends of the wire are counted.
type daemonRig struct {
	ptiA   *pti.Cached // the server's analyzer
	srv    *daemon.Server
	served chan error
	pool   *daemon.Pool
	nti    *nti.Analyzer
	client *daemon.HybridClient
	// clientIO and serverIO count the two ends of the same connections.
	clientIO, serverIO connCounters
}

func startRig(in *inputs, store *joza.ProfileStore, traced bool) (*daemonRig, error) {
	r := &daemonRig{
		ptiA:   pti.NewCached(pti.New(fragments.NewSet(in.fragments)), pti.CacheQueryAndStructure, in.cacheCap),
		served: make(chan error, 1),
		nti:    nti.MustNew(),
	}
	srvOpts := []daemon.ServerOption{daemon.WithProfiles(store)}
	var clientOpts []daemon.HybridOption
	if traced {
		srvOpts = append(srvOpts, daemon.WithTracer(trace.New(trace.Config{SampleEvery: 1})))
		clientOpts = append(clientOpts, daemon.WithTracing(trace.Config{SampleEvery: 1}))
	}
	r.srv = daemon.NewServer(r.ptiA, srvOpts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() { r.served <- r.srv.Serve(countingListener{Listener: ln, n: &r.serverIO}) }()
	addr := ln.Addr().String()
	r.pool = daemon.NewPool(func() (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, n: &r.clientIO}, nil
	}, daemon.PoolConfig{Size: poolConns})
	r.client = daemon.NewHybridClient(r.pool, r.nti, core.PolicyTerminate, clientOpts...)
	return r, nil
}

// close stops the client (and its pool), then the server, and waits until
// the server's accept loop has returned.
func (r *daemonRig) close() {
	_ = r.client.Close() // closing a drained pool reports nothing actionable
	_ = r.srv.Close()
	<-r.served
}

func (r *daemonRig) system() *system {
	return &system{
		door:     r.client.CheckContextAt,
		cache:    r.ptiA.Stats,
		ntiStats: r.nti.Stats,
		stages:   func() []metrics.StageLatency { return r.client.Metrics().Stages },
		audit:    new(countingWriter),
		close:    r.close,
	}
}
