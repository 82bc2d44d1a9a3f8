// Package client is the Memcached-client substrate (the front-end web
// server side of the paper's Fig. 1): it hashes keys to servers,
// multiplexes pooled TCP connections, fans a request's keys out to all
// servers in parallel and joins on the last value (the fork-join that
// the paper's model analyzes), and relays misses to the back-end
// database.
package client

import "memqlat/internal/route"

// The selector implementations live in internal/route so the proxy
// tier routes keys identically to a direct client; these aliases keep
// the client's historical API surface intact.

// Selector maps a key to a server index in [0, n).
type Selector = route.Selector

// RingSelector is a ketama-style consistent-hash ring with virtual
// nodes; see route.RingSelector.
type RingSelector = route.RingSelector

// NewRingSelector builds a ring over n servers with the given number of
// virtual nodes per server (default 160 when vnodes <= 0).
func NewRingSelector(n, vnodes int) (*RingSelector, error) { return route.NewRingSelector(n, vnodes) }
