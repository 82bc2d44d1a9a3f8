// Package sim is the measurement testbed of the reproduction: a
// deterministic, seedable simulator of the Memcached system exactly as
// the paper models it — GI^X/M/1 key queues at each Memcached server, an
// exponential-service database stage for misses, constant network delay,
// and fork-join composition of a request's N keys (paper §3, Fig. 3).
//
// SimulateRequests is the one entry point, with two modes. Neither needs
// an event scheduler: every queue is FIFO with a single server, so the
// Lindley recursion is its exact event-by-event evolution.
//
//   - The composition mode mirrors the paper's testbed methodology:
//     SimulateServer generates per-server key streams (Generalized Pareto
//     gaps, geometric batches) and request latency is composed from
//     sampled key latencies (the paper's mutilate + statistical
//     composition).
//
//   - The integrated mode (RequestConfig.Integrated) is request-driven:
//     requests fork into keys, keys queue at servers, misses visit the
//     database, and the request joins when its last key completes.
//     Per-server arrivals emerge from the request stream, so it tests the
//     model's independence assumptions end to end.
//
// SimulateMissStage samples the database stage alone, O(1) per request.
package sim
