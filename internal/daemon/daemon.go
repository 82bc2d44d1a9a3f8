// Package daemon is the lifecycle the standalone binaries
// (memcached-server, mcproxy) share: listen, serve, drain on a signal.
package daemon

import (
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memqlat/internal/slo"
)

// Trap holds SIGINT and SIGTERM for Serve until stop. Call it before
// anything serves, the admin plane included: a signal that arrives
// before Serve then waits for it and drains the tier instead of killing
// the process.
func Trap() (sig <-chan os.Signal, stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}

// Serve listens on addr and serves tier there until Serve fails or a
// signal arrives on sig (see Trap), which closes the tier and waits for
// Serve to return. wd, when non-nil, judges windows of a wall clock
// started here. Log lines open with name; "listening on" carries the
// bound address and banner.
func Serve(name, addr string, tier interface {
	Serve(net.Listener) error
	Close() error
}, wd *slo.Watchdog, banner string, sig <-chan os.Signal) error {
	if wd != nil {
		start := time.Now()
		defer wd.Start(func() float64 { return time.Since(start).Seconds() })()
		log.Printf("%s: slo watchdog armed (window %gs, alerts on stderr)", name, wd.Status().WindowSeconds)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- tier.Serve(l) }()
	log.Printf("%s: listening on %s%s", name, l.Addr(), banner)
	select {
	case err := <-served:
		return err
	case s := <-sig:
		log.Printf("%s: %v, shutting down", name, s)
		err := tier.Close()
		<-served
		return err
	}
}
