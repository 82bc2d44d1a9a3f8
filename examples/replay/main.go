// Trace record & replay: run a workload against a live cluster while
// journaling the key stream, compute its miss-ratio curve, then replay
// the exact same stream (sped up) against a second, smaller cluster and
// compare hit ratios — the workflow for answering "what would this
// production traffic do to a differently-sized cache?". Run with:
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/core"
	"memqlat/internal/keylog"
	"memqlat/internal/loadgen"
	"memqlat/internal/mrc"
	"memqlat/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// startCluster brings up one server with the given cache budget and
// returns a client for it plus a shutdown func.
func startCluster(maxBytes int64) (*client.Client, func(), error) {
	store, err := cache.New(cache.Options{MaxBytes: maxBytes, Shards: 1})
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Options{Cache: store, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = srv.Serve(l) }()
	cl, err := client.New(client.Options{Servers: []string{l.Addr().String()}})
	if err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	shutdown := func() {
		_ = cl.Close()
		_ = srv.Close()
	}
	return cl, shutdown, nil
}

func run() error {
	// 1. Record: drive a Zipf workload against a roomy cluster,
	//    journaling every issued key.
	bigClient, shutdownBig, err := startCluster(64 << 20)
	if err != nil {
		return err
	}
	defer shutdownBig()

	var journal bytes.Buffer
	writer := keylog.NewWriter(&journal)
	// 80 Kkeys/s in geometric batches (q = 0.1) at the model's
	// Generalized Pareto gaps (ξ = 0.15).
	model := &core.Config{Q: 0.1, Xi: 0.15}
	gaps, err := model.ArrivalFor(80000)
	if err != nil {
		return err
	}
	opts := loadgen.Options{
		Client:  bigClient,
		Keys:    3000,
		ZipfS:   1.0,
		Gaps:    gaps,
		Q:       model.Q,
		Ops:     8000,
		Workers: 16,
		Seed:    21,
		Observer: func(offset time.Duration, key string) {
			_ = writer.Write(keylog.Record{Offset: offset, Key: key})
		},
	}
	if err := loadgen.Populate(opts); err != nil {
		return err
	}
	res, err := loadgen.Run(context.Background(), opts)
	if err != nil {
		return err
	}
	if err := writer.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded: %d ops at %.0f keys/s, %d hits (cache big enough for everything)\n",
		res.Issued, res.AchievedRate(), res.Hits)

	// 2. Analyze: what does this trace's miss-ratio curve look like?
	records, err := keylog.NewReader(bytes.NewReader(journal.Bytes())).ReadAll()
	if err != nil {
		return err
	}
	curve, err := mrc.Compute(keylog.Keys(records))
	if err != nil {
		return err
	}
	fmt.Printf("trace MRC: %d accesses / %d distinct keys\n", len(records), curve.UniqueKeys())
	for _, capacity := range []int{200, 500, 1000, curve.UniqueKeys()} {
		fmt.Printf("  LRU capacity %5d -> predicted miss ratio %.1f%%\n",
			capacity, curve.MissRatio(capacity)*100)
	}

	// 3. Replay: the same stream, 20x speed, against a cluster whose
	//    cache only fits ~500 of the items.
	const itemCost = 100 + 64 + 8 // value + overhead + key bytes, approx.
	smallClient, shutdownSmall, err := startCluster(500 * itemCost)
	if err != nil {
		return err
	}
	defer shutdownSmall()
	var hits, misses int
	err = keylog.Replay(context.Background(), records, 20, func(key string) error {
		_, err := smallClient.Get(key)
		switch {
		case err == nil:
			hits++
		case errors.Is(err, client.ErrCacheMiss):
			misses++
			// Miss path: fetch-and-fill, as the real system would.
			return smallClient.Set(key, []byte("refilled-value-padding-to-100-bytes-"+key), 0, 0)
		default:
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := hits + misses
	fmt.Printf("\nreplayed against a ~500-item cache: %.1f%% observed miss ratio\n",
		100*float64(misses)/float64(total))
	fmt.Printf("MRC prediction for 500 items:       %.1f%%\n", curve.MissRatio(500)*100)
	fmt.Println("\n(the observed ratio sits near the MRC prediction; differences come from")
	fmt.Println(" byte-based vs item-based capacity and eviction of refill metadata)")
	return nil
}
