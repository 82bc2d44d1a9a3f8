package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/otrace"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
)

// An env is one workload's tiers running in-process on loopback TCP:
// unshaped servers (ServiceRate 0), an optional proxy, and one client.
// Every option a user could leave at its default is left there.
type env struct {
	w  *workload
	st *stream

	servers []*server.Server
	addrs   []string // server listen addresses
	proxy   *proxy.Proxy
	front   string // proxy listen address when proxied
	cl      *client.Client
	tracer  *otrace.Tracer

	cursor [conns]int     // each worker's position in the stream
	serve  sync.WaitGroup // the Serve goroutines, joined by close
}

var discard = log.New(io.Discard, "", 0)

// startEnv boots the tiers, stores every key and reads every key back
// once (verified), which also dials the client's connections. tracer is
// nil except on the traced run.
func startEnv(w *workload, st *stream, tracer *otrace.Tracer) (*env, error) {
	e := &env{w: w, st: st, tracer: tracer}
	for i := 0; i < w.servers; i++ {
		c, err := cache.New(cache.Options{MaxBytes: w.cacheBytes})
		if err != nil {
			e.close()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		srv, err := server.New(server.Options{Cache: c, Logger: discard, ConnCore: w.connCore, Tracer: tracer, ID: i})
		if err != nil {
			_ = l.Close()
			e.close()
			return nil, err
		}
		e.serve.Add(1)
		go func() { // returns when srv.Close closes l
			defer e.serve.Done()
			_ = srv.Serve(l)
		}()
		e.servers = append(e.servers, srv)
		e.addrs = append(e.addrs, l.Addr().String())
	}
	targets := e.addrs
	if w.proxied {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		p, err := proxy.New(proxy.Options{Upstreams: e.addrs, Logger: discard, Tracer: tracer})
		if err != nil {
			_ = l.Close()
			e.close()
			return nil, err
		}
		e.serve.Add(1)
		go func() { // returns when p.Close closes l
			defer e.serve.Done()
			_ = p.Serve(l)
		}()
		e.proxy = p
		e.front = l.Addr().String()
		targets = []string{e.front}
	}
	cl, err := client.New(client.Options{Servers: targets, PoolSize: conns, Tracer: tracer})
	if err != nil {
		e.close()
		return nil, err
	}
	e.cl = cl
	for i := range e.cursor {
		e.cursor[i] = i * st.n() / conns
	}
	if err := e.populate(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// populate sets every key and then gets every key, from C goroutines
// so that all C connections per server are dialled before timing. On
// set_mixed the data exceeds the cache, so the read-back accepts misses.
func (e *env) populate() error {
	for _, read := range []bool{false, true} {
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for wk := 0; wk < conns; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := wk; k < e.w.keys; k += conns {
					if !read {
						if err := e.cl.Set(e.st.keys[k], e.st.value(uint32(k)), 0, 0); err != nil {
							errs[wk] = fmt.Errorf("populate set %s: %w", e.st.keys[k], err)
							return
						}
					} else if !e.get(uint32(k)) {
						errs[wk] = fmt.Errorf("populate read-back of %s failed verification", e.st.keys[k])
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// mayMiss: only a workload that writes more than the cache holds can
// see a GET miss; everywhere else a miss is a failure.
func (w *workload) mayMiss() bool { return w.cacheBytes > 0 }

// get issues one verified GET: the value must be the key's own bytes.
func (e *env) get(k uint32) bool {
	it, err := e.cl.Get(e.st.keys[k])
	if err != nil {
		return e.w.mayMiss() && errors.Is(err, client.ErrCacheMiss)
	}
	return bytes.Equal(it.Value, e.st.value(k))
}

// do issues request i of the stream and verifies its reply. keybuf is
// the caller's scratch for multiget key names.
func (e *env) do(i int, keybuf []string) bool {
	keys, set := e.st.op(i)
	switch {
	case set:
		k := keys[0] &^ setBit
		return e.cl.Set(e.st.keys[k], e.st.value(k), 0, 0) == nil
	case len(keys) == 1:
		return e.get(keys[0])
	}
	for j, k := range keys {
		keybuf[j] = e.st.keys[k]
	}
	items, err := e.cl.MultiGet(keybuf)
	if err != nil || len(items) != len(keys) {
		return false
	}
	for _, k := range keys {
		if it, ok := items[e.st.keys[k]]; !ok || !bytes.Equal(it.Value, e.st.value(k)) {
			return false
		}
	}
	return true
}

// close stops every tier and waits for their goroutines.
func (e *env) close() {
	if e.cl != nil {
		_ = e.cl.Close()
	}
	if e.proxy != nil {
		_ = e.proxy.Close()
	}
	for _, s := range e.servers {
		_ = s.Close()
	}
	e.serve.Wait()
}

// setup is what setup_s times: generate the inputs from the seed, boot
// the tiers, populate and read back.
func setup(w *workload, seed uint64, tracer *otrace.Tracer) (*env, float64, error) {
	t0 := time.Now()
	e, err := startEnv(w, newStream(w, seed), tracer)
	return e, time.Since(t0).Seconds(), err
}
