package server

import "net"

// Connection-core names accepted by Options.ConnCore.
const (
	// CoreGoroutines is one goroutine per connection, blocking reads,
	// per-connection buffers. It is the default, the configuration the
	// paper reproduction runs on and the only core the binaries run.
	CoreGoroutines = "goroutines"
	// CoreEventLoop multiplexes every connection onto a small set of
	// epoll-driven loop goroutines (GOMAXPROCS of them): readiness-driven
	// batched reads feed per-connection resumable parsers, replies
	// coalesce into one write per connection per batch, and an idle
	// connection costs a few hundred bytes instead of a goroutine stack.
	// Linux only; only bench/ selects it.
	CoreEventLoop = "eventloop"
)

// connCore owns connections after the accept loop admits them. Both
// implementations run the same per-command path (serveCommand), the
// same parser semantics and the same telemetry; they differ only in how
// connections map onto goroutines.
type connCore interface {
	// attach takes ownership of an accepted connection. It returns false
	// when the server is closed (the caller then closes the conn and
	// stops accepting); in every other case the core is responsible for
	// eventually closing the connection and decrementing currConns.
	attach(conn net.Conn, id uint64) bool
	// shutdown closes every attached connection and waits for the
	// core's goroutines to exit. Called once, from Server.Close.
	shutdown()
	// loopStats snapshots per-loop gauges (nil for the goroutine core).
	loopStats() []LoopStat
}

// LoopStat is a snapshot of one event-loop goroutine's gauges, exposed
// through Server.LoopStats.
type LoopStat struct {
	// Conns is the number of connections currently owned by the loop.
	Conns int64
	// Wakeups counts epoll_wait returns (readiness batches serviced).
	Wakeups int64
	// FlushBatches counts coalesced reply flushes: one per connection
	// per readiness batch that produced output, so FlushBatches/Commands
	// measures how much reply coalescing the pipelining achieves.
	FlushBatches int64
	// Commands counts commands the loop has dispatched.
	Commands int64
}
