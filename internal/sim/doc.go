// Package sim is the measurement testbed of the reproduction: a
// deterministic, seedable simulator of the Memcached system exactly as
// the paper models it — GI^X/M/1 key queues at each Memcached server, an
// exponential-service database stage for misses, constant network delay,
// and fork-join composition of a request's N keys (paper §3, Fig. 3).
//
// SimulateRequests is the one entry point: one request loop that
// launches requests, forks their keys, sends misses down one miss path
// and joins. RequestConfig.Integrated switches the paper's §3
// independence assumption, which decides how a key's memcached stage is
// produced and how a request joins:
//
//   - Composition (the paper's mutilate + statistical composition): a
//     key draws its sojourn from its server's GI^X/M/1 stream,
//     pre-simulated by SimulateServer, and a request adds its stage
//     maxima in series.
//   - Integrated: a key queues at its server, so per-server arrivals
//     emerge from the request stream, and a request joins at its last
//     key's completion. No event scheduler is needed: every queue is
//     FIFO with a single server, so the Lindley recursion is its exact
//     event-by-event evolution.
//
// SimulateMissStage samples the database stage alone, O(1) per request.
package sim
