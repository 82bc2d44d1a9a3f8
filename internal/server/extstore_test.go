package server

import (
	"bufio"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/extstore"
	"memqlat/internal/testkit"
)

// tieredServer starts a server whose RAM tier holds only a couple of
// small items, backed by an extstore tier in a temp dir, so a handful
// of sets reliably spills the eviction tail to disk. Once the test has
// closed its connections, the server and the tier, they must have left
// no goroutine or descriptor behind.
func tieredServer(t *testing.T, core string) (*Server, *extstore.Store, string) {
	t.Helper()
	settled := testkit.Settles(t)
	t.Cleanup(func() { settled("tiered server after Close") })
	ext, err := extstore.Open(extstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ext.Close() })
	c, err := cache.New(cache.Options{MaxBytes: 1, Shards: 1, MaxItemSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Options{Cache: c, Extstore: ext, ConnCore: core})
	return srv, ext, addr
}

// diskCounts reads the extstore_disk_hits and extstore_promotions rows
// of stats over the test's own connection.
func diskCounts(t *testing.T, r *bufio.Reader, w *bufio.Writer) (hits, promotions int64) {
	t.Helper()
	send(t, w, "stats\r\n")
	for line := readLine(t, r); line != "END"; line = readLine(t, r) {
		for name, n := range map[string]*int64{"extstore_disk_hits": &hits, "extstore_promotions": &promotions} {
			if v, ok := strings.CutPrefix(line, "STAT "+name+" "); ok {
				var err error
				if *n, err = strconv.ParseInt(v, 10, 64); err != nil {
					t.Fatalf("stats row %q: %v", line, err)
				}
			}
		}
	}
	return hits, promotions
}

// expectValue reads one VALUE reply plus terminator.
func expectValue(t *testing.T, r *bufio.Reader, key, flags, body string) {
	t.Helper()
	want := []string{fmt.Sprintf("VALUE %s %s %d", key, flags, len(body)), body, "END"}
	for i, w := range want {
		if got := readLine(t, r); got != w {
			t.Fatalf("line %d = %q, want %q", i, got, w)
		}
	}
}

// TestTieredReadPathBothCores drives the full RAM→disk→RAM cycle
// through the protocol on each connection core (dispatch is the shared
// seam): evicted values are served from the disk tier, re-promoted
// into RAM, verbs that need the current value (touch, gat, append, incr,
// replace, cas) find it on disk, a mutation drops the disk record only
// once it has succeeded, and flush_all clears both tiers.
func TestTieredReadPathBothCores(t *testing.T) {
	cores := []string{CoreGoroutines}
	if runtime.GOOS == "linux" {
		cores = append(cores, CoreEventLoop)
	}
	for _, core := range cores {
		t.Run(core, func(t *testing.T) {
			srv, ext, addr := tieredServer(t, core)
			r, w, _ := dial(t, addr)

			// Spill: the tiny RAM tier evicts all but the newest keys.
			send(t, w, "set num 0 0 2\r\n41\r\nset dec 0 0 2\r\n10\r\n")
			readLine(t, r)
			readLine(t, r)
			for i := 0; i < 10; i++ {
				send(t, w, fmt.Sprintf("set key-%04d 7 0 8\r\nvalue-%02d\r\n", i, i))
				if got := readLine(t, r); got != "STORED" {
					t.Fatalf("set %d reply = %q", i, got)
				}
			}
			ext.Flush()
			if ext.Len() == 0 {
				t.Fatal("no evictions reached the disk tier")
			}

			// The oldest key left RAM long ago; the disk tier must serve
			// it with its original flags and value.
			send(t, w, "get key-0000\r\n")
			expectValue(t, r, "key-0000", "7", "value-00")
			hits, promos := diskCounts(t, r, w)
			if hits != 1 || promos != 1 {
				t.Fatalf("extstore counts = (%d hits, %d promotions), want (1, 1)", hits, promos)
			}
			// Re-promotion makes the next read a RAM hit: disk counters
			// must not move.
			send(t, w, "get key-0000\r\n")
			expectValue(t, r, "key-0000", "7", "value-00")
			if hits, _ := diskCounts(t, r, w); hits != 1 {
				t.Fatalf("disk hits after re-promotion = %d, want still 1", hits)
			}

			// A delete must drop the disk record even when the key is no
			// longer in RAM — otherwise the next get would resurrect it.
			send(t, w, "delete key-0001\r\n")
			if got := readLine(t, r); got != "DELETED" {
				t.Fatalf("delete of a disk-resident key = %q, want DELETED", got)
			}
			send(t, w, "get key-0001\r\n")
			if got := readLine(t, r); got != "END" {
				t.Fatalf("get after delete = %q, want END (stale disk copy served?)", got)
			}

			// Verbs that need the current value see one cache, not two
			// tiers: each promotes the disk record and applies to it.
			expectLine := func(cmd, want string) {
				t.Helper()
				send(t, w, cmd)
				if got := readLine(t, r); got != want {
					t.Fatalf("%q answered %q, want %q", cmd, got, want)
				}
			}
			spill := func() {
				t.Helper()
				for i := 0; i < 4; i++ {
					expectLine(fmt.Sprintf("set pad-%d 0 0 3\r\npad\r\n", i), "STORED")
				}
				ext.Flush()
			}
			expectLine("touch key-0003 100\r\n", "TOUCHED")
			send(t, w, "gat 100 key-0004\r\n")
			expectValue(t, r, "key-0004", "7", "value-04")
			send(t, w, "gats 100 key-0005\r\n")
			if got := readLine(t, r); !strings.HasPrefix(got, "VALUE key-0005 7 8 ") {
				t.Fatalf("gats of a disk-resident key = %q", got)
			}
			readLine(t, r) // body
			readLine(t, r) // END
			expectLine("append key-0006 0 0 2\r\n!!\r\n", "STORED")
			expectLine("prepend key-0007 0 0 2\r\n>>\r\n", "STORED")
			expectLine("incr num 1\r\n", "42")
			expectLine("decr dec 3\r\n", "7")
			spill()
			expectLine("replace key-0003 5 0 3\r\nnew\r\n", "STORED")
			// The promoted copy owns a fresh CAS: the token is stale, the
			// key is not missing.
			expectLine("cas key-0004 0 0 1 999\r\nx\r\n", "EXISTS")
			// A verb that fails must leave the disk record alone.
			expectLine("incr key-0005 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value")
			// A touch that expires the key must not leave a disk copy to
			// resurrect it.
			expectLine("touch dec -1\r\n", "TOUCHED")
			spill()
			for _, kv := range [][3]string{
				{"key-0003", "5", "new"}, {"key-0004", "7", "value-04"}, {"key-0005", "7", "value-05"},
				{"key-0006", "7", "value-06!!"}, {"key-0007", "7", ">>value-07"}, {"num", "0", "42"},
			} {
				send(t, w, "get "+kv[0]+"\r\n")
				expectValue(t, r, kv[0], kv[1], kv[2])
			}
			expectLine("get dec\r\n", "END")

			// An overwrite of a disk-resident key invalidates the old
			// record; once the new value is evicted in turn, the disk
			// tier must serve the fresh bytes.
			send(t, w, "set key-0002 0 0 8\r\nfresh-02\r\n")
			if got := readLine(t, r); got != "STORED" {
				t.Fatalf("overwrite reply = %q", got)
			}
			for i := 10; i < 14; i++ {
				send(t, w, fmt.Sprintf("set key-%04d 0 0 8\r\nvalue-%02d\r\n", i, i))
				readLine(t, r)
			}
			ext.Flush()
			send(t, w, "get key-0002\r\n")
			expectValue(t, r, "key-0002", "0", "fresh-02")

			// gets on a disk hit serves the value without a CAS (the
			// promoted copy owns a fresh one), mirroring the fill path.
			send(t, w, "set gets-key 0 0 4\r\nbody\r\n")
			readLine(t, r)
			for i := 14; i < 18; i++ {
				send(t, w, fmt.Sprintf("set key-%04d 0 0 8\r\nvalue-%02d\r\n", i, i))
				readLine(t, r)
			}
			ext.Flush()
			send(t, w, "gets gets-key\r\n")
			if got := readLine(t, r); got != "VALUE gets-key 0 4 0" {
				t.Fatalf("gets disk-hit header = %q, want CAS 0", got)
			}
			readLine(t, r) // body
			readLine(t, r) // END

			// The stats surface reports the tier, and Stats reads the rows
			// the wire carries (uptime may tick between the two).
			send(t, w, "stats\r\n")
			var wire []string
			for line := readLine(t, r); line != "END"; line = readLine(t, r) {
				wire = append(wire, line)
			}
			table := srv.Stats()
			if len(wire) != len(table) || table["extstore_disk_hits"] != fmt.Sprint(srv.diskHits.Load()) {
				t.Fatalf("stats wrote %d rows, Stats has %d with extstore_disk_hits %q; the server counts %d",
					len(wire), len(table), table["extstore_disk_hits"], srv.diskHits.Load())
			}
			for _, line := range wire {
				f := strings.SplitN(line, " ", 3)
				if len(f) != 3 || f[1] != "uptime" && table[f[1]] != f[2] {
					t.Errorf("stats wrote %q, Stats has %q", line, table[f[1]])
				}
			}

			// flush_all clears BOTH tiers: nothing may resurrect from disk.
			send(t, w, "flush_all\r\n")
			if got := readLine(t, r); got != "OK" {
				t.Fatalf("flush_all reply = %q", got)
			}
			if ext.Len() != 0 {
				t.Fatalf("disk tier holds %d keys after flush_all", ext.Len())
			}
			send(t, w, "get key-0003\r\n")
			if got := readLine(t, r); got != "END" {
				t.Fatalf("get after flush_all = %q, want END", got)
			}
		})
	}
}

// TestTieredTTLSurvivesDemotion: a key stored with a TTL keeps its
// deadline across eviction to disk and re-promotion — the promoted RAM
// copy must not outlive the original exptime.
func TestTieredTTLSurvivesDemotion(t *testing.T) {
	_, ext, addr := tieredServer(t, CoreGoroutines)
	r, w, _ := dial(t, addr)

	send(t, w, "set ttl-key 0 1 7\r\nexpires\r\n")
	if got := readLine(t, r); got != "STORED" {
		t.Fatalf("set reply = %q", got)
	}
	// Push it to disk.
	for i := 0; i < 4; i++ {
		send(t, w, fmt.Sprintf("set pad-%04d 0 0 8\r\npadding!\r\n", i))
		readLine(t, r)
	}
	ext.Flush()

	// Served from disk and re-promoted while still live.
	send(t, w, "get ttl-key\r\n")
	expectValue(t, r, "ttl-key", "0", "expires")
	if hits, _ := diskCounts(t, r, w); hits != 1 {
		t.Fatalf("disk hits = %d, want 1", hits)
	}

	// After the deadline the promoted copy must be gone too.
	time.Sleep(1100 * time.Millisecond)
	send(t, w, "get ttl-key\r\n")
	if got := readLine(t, r); got != "END" {
		t.Fatalf("get after expiry = %q, want END (promotion dropped the TTL?)", got)
	}
}

// TestTieredAddOfPromotedKeyChangesNothing: a get that promotes a disk
// record leaves the key on both tiers. An add of it then fails on the RAM
// copy alone: no disk read, no second promotion, and the CAS token a gets
// handed out still works.
func TestTieredAddOfPromotedKeyChangesNothing(t *testing.T) {
	for _, core := range testCores(t) {
		t.Run(core, func(t *testing.T) {
			_, ext, addr := tieredServer(t, core)
			r, w, _ := dial(t, addr)
			send(t, w, "set k 7 0 8\r\nvalue-xx\r\n")
			readLine(t, r)
			for i := 0; i < 4; i++ {
				send(t, w, fmt.Sprintf("set pad-%d 0 0 3\r\npad\r\n", i))
				readLine(t, r)
			}
			ext.Flush()
			send(t, w, "get k\r\n")
			expectValue(t, r, "k", "7", "value-xx")
			if _, _, _, err := ext.Lookup([]byte("k"), nil); err != nil {
				t.Fatalf("k is not on disk after its promotion: %v", err)
			}
			send(t, w, "gets k\r\n")
			f := strings.Fields(readLine(t, r))
			readLine(t, r) // body
			readLine(t, r) // END
			if len(f) != 5 || f[4] == "0" {
				t.Fatalf("gets of a promoted key = %q, want a RAM hit with its CAS", f)
			}
			hits, promos := diskCounts(t, r, w)
			send(t, w, "add k 0 0 3\r\nnew\r\n")
			if got := readLine(t, r); got != "NOT_STORED" {
				t.Fatalf("add of a key on both tiers = %q, want NOT_STORED", got)
			}
			if h, p := diskCounts(t, r, w); h != hits || p != promos {
				t.Fatalf("add moved the extstore counts from (%d, %d) to (%d, %d)", hits, promos, h, p)
			}
			send(t, w, "cas k 0 0 1 "+f[4]+"\r\nx\r\n")
			if got := readLine(t, r); got != "STORED" {
				t.Fatalf("cas with the token gets handed out = %q, want STORED", got)
			}
		})
	}
}

// TestTieredVerbsSeeOneCache runs every keyed verb against a key while it
// is in RAM, then against the same key after it has spilled to disk: the
// reply, and what a get sees afterwards, must not depend on the tier. The
// two exceptions are the CAS cases DESIGN §15.2 documents: a disk hit is
// served with CAS 0, because its promoted copy owns a token the reply
// never saw, and for the same reason a cas with the token read before the
// spill answers EXISTS.
func TestTieredVerbsSeeOneCache(t *testing.T) {
	value := func(flags, body string) string {
		return fmt.Sprintf("VALUE k %s %d|%s|END", flags, len(body), body)
	}
	verbs := []struct {
		name, stored, cmd string
		reply, after      string
		diskReply         string // "" = reply
		diskAfter         string // "" = after
	}{
		{name: "add", stored: "value-xx", cmd: "add k 0 0 3\r\nnew\r\n",
			reply: "NOT_STORED", after: value("7", "value-xx")},
		{name: "replace", stored: "value-xx", cmd: "replace k 5 0 3\r\nnew\r\n",
			reply: "STORED", after: value("5", "new")},
		{name: "append", stored: "value-xx", cmd: "append k 0 0 2\r\n!!\r\n",
			reply: "STORED", after: value("7", "value-xx!!")},
		{name: "prepend", stored: "value-xx", cmd: "prepend k 0 0 2\r\n>>\r\n",
			reply: "STORED", after: value("7", ">>value-xx")},
		{name: "cas", stored: "value-xx", cmd: "cas k 0 0 1 {cas}\r\nx\r\n",
			reply: "STORED", after: value("0", "x"),
			diskReply: "EXISTS", diskAfter: value("7", "value-xx")},
		{name: "incr", stored: "41", cmd: "incr k 1\r\n", reply: "42", after: value("7", "42")},
		{name: "decr", stored: "41", cmd: "decr k 3\r\n", reply: "38", after: value("7", "38")},
		{name: "touch", stored: "value-xx", cmd: "touch k 100\r\n",
			reply: "TOUCHED", after: value("7", "value-xx")},
		{name: "gat", stored: "value-xx", cmd: "gat 100 k\r\n",
			reply: value("7", "value-xx"), after: value("7", "value-xx")},
		{name: "gats", stored: "value-xx", cmd: "gats 100 k\r\n",
			reply: "VALUE k 7 8 <cas>|value-xx|END", after: value("7", "value-xx")},
		{name: "get", stored: "value-xx", cmd: "get k\r\n",
			reply: value("7", "value-xx"), after: value("7", "value-xx")},
		{name: "gets", stored: "value-xx", cmd: "gets k\r\n",
			reply: "VALUE k 7 8 <cas>|value-xx|END", after: value("7", "value-xx"),
			diskReply: "VALUE k 7 8 0|value-xx|END"},
		{name: "delete", stored: "value-xx", cmd: "delete k\r\n", reply: "DELETED", after: "END"},
	}
	for _, core := range testCores(t) {
		t.Run(core, func(t *testing.T) {
			srv, ext, addr := tieredServer(t, core)
			r, w, _ := dial(t, addr)
			// reply reads one reply, a VALUE block's data line included,
			// joined by "|", with every nonzero CAS shown as <cas>.
			reply := func() string {
				var lines []string
				for {
					line := readLine(t, r)
					f := strings.Fields(line)
					if len(f) == 5 && f[0] == "VALUE" && f[4] != "0" {
						line = strings.Join(append(f[:4], "<cas>"), " ")
					}
					lines = append(lines, line)
					if f == nil || f[0] != "VALUE" {
						return strings.Join(lines, "|")
					}
					lines = append(lines, readLine(t, r))
				}
			}
			for _, v := range verbs {
				for _, onDisk := range []bool{false, true} {
					send(t, w, "flush_all\r\n")
					reply()
					send(t, w, fmt.Sprintf("set k 7 0 %d\r\n%s\r\ngets k\r\n", len(v.stored), v.stored))
					reply()
					f := strings.Fields(readLine(t, r))
					readLine(t, r) // body
					readLine(t, r) // END
					wantReply, wantAfter := v.reply, v.after
					if onDisk {
						for i := 0; i < 4; i++ {
							send(t, w, fmt.Sprintf("set pad-%d 0 0 3\r\npad\r\n", i))
							reply()
						}
						ext.Flush()
						if _, _, _, err := srv.Cache().GetInto([]byte("k"), nil); err == nil {
							t.Fatal("k is still in RAM after the spill")
						}
						if _, _, _, err := ext.Lookup([]byte("k"), nil); err != nil {
							t.Fatalf("k is not on disk after the spill: %v", err)
						}
						if v.diskReply != "" {
							wantReply = v.diskReply
						}
						if v.diskAfter != "" {
							wantAfter = v.diskAfter
						}
					}
					send(t, w, strings.ReplaceAll(v.cmd, "{cas}", f[4]))
					got := reply()
					send(t, w, "get k\r\n")
					after := reply()
					if got != wantReply || after != wantAfter {
						t.Errorf("%s, on disk %v: reply %q then get %q, want %q then %q",
							v.name, onDisk, got, after, wantReply, wantAfter)
					}
				}
			}
		})
	}
}
