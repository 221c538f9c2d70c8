package rpcnode

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"io"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/store"
	"afex/internal/targets"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden")

// wireBody is a fresh value of one of the eight body types.
func wireBody(kind uint8) any {
	switch kind % 8 {
	case 0:
		return new(Hello)
	case 1:
		return new(HelloReply)
	case 2:
		return new(BatchRequest)
	case 3:
		return new(TaskBatch)
	case 4:
		return new(ResultBatch)
	case 5:
		return new(BatchAck)
	case 6:
		return new(string)
	}
	return new(bool)
}

// dialCoordinator, newClient and serveConn are the package's codec on a
// test's connections.
func dialCoordinator(addr string) (*rpc.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn io.ReadWriteCloser) *rpc.Client {
	return rpc.NewClientWithCodec(newFrameCodec(conn))
}

func serveConn(srv *rpc.Server, conn io.ReadWriteCloser) { srv.ServeCodec(newFrameCodec(conn)) }

// encodeBody is body's wire form.
func encodeBody(body any) ([]byte, error) {
	w := wire{}
	w.body(body)
	return w.b, w.err
}

// allocated is the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBound is what decoding n bytes may allocate: each count is held
// to the bytes left (a task to four of them, a result to nine), so a
// batch's tasks and arenas cost at most 40 bytes a byte; plus slack for
// the heap's size classes and the runtime's own bookkeeping.
func decodeBound(n int) uint64 { return uint64(48*n) + 64<<10 }

// sideConn is a connection made of a reader and a writer.
type sideConn struct {
	io.Reader
	io.Writer
}

func (sideConn) Close() error { return nil }

// framed is body as a server writes it: the preamble, then one frame.
func framed(t testing.TB, body any) []byte {
	var buf bytes.Buffer
	if err := newFrameCodec(sideConn{Writer: &buf}).WriteResponse(&rpc.Response{ServiceMethod: "Coordinator.NextBatch", Seq: 7}, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWireFrame: whatever bytes arrive — as a body, or as a stream of
// frames behind the preamble — the codec decodes or refuses them without
// a panic and allocates no more than the bytes bound (a stream, one frame
// cap more: a longer length prefix is refused before anything is
// allocated for it), and a body it accepts is a fixed point: encoding it
// and decoding that gives back an equal value and the same bytes.
func FuzzWireFrame(f *testing.F) {
	samples := []any{
		&Hello{Manager: "m", Proto: protoBatched, Target: "coreutils"},
		&HelloReply{Proto: protoBatched, AxisNames: [][]string{{"testID", "function", "callNumber"}, {"x"}}, Heartbeat: DefaultHeartbeat},
		&BatchRequest{Manager: "m", Max: 32, AvgTestNS: 1500},
		&TaskBatch{Tasks: []TaskWire{
			{Seq: 1, Fault: []int{0, 1, 2}, Vals: []string{"0", "read", "3"}},
			{Seq: 2, Sub: 1, Fault: []int{-1}, Vals: []string{"7"}},
		}},
		&ResultBatch{Manager: "m", Backend: backend.Model, Results: []ResultWire{
			{Seq: 1, TestID: 2, Failed: true, Injected: true, CrashID: "c", StackHash: 7, Stack: []string{"m!r", "m!read"}, Blocks: []byte{1, 2}, ExitStatus: "exit 1", DurationNS: 9},
			{Seq: 2, Hung: true, Skipped: true, StackHash: 7},
		}},
		&BatchAck{Folded: 3},
		new(string),
		new(bool),
	}
	*samples[6].(*string) = "mgrA"
	*samples[7].(*bool) = true
	for kind, body := range samples {
		enc, err := encodeBody(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), enc)
		f.Add(uint8(kind), framed(f, body)[len(preamble):])
	}
	f.Add(uint8(3), []byte{0, 0, 0x7f, 0, 0})                        // tasks the frame cannot hold
	f.Add(uint8(4), binary.AppendUvarint(nil, 2*maxFrame))           // a length prefix over the cap
	f.Add(uint8(4), append(binary.AppendUvarint(nil, 1<<20), 0))     // a frame cut short
	f.Add(uint8(1), []byte{6, 0x80, 1, 'a', 'f', 'e', 'x', 3, 0, 0}) // a frame of garbage
	f.Fuzz(func(t *testing.T, kind uint8, in []byte) {
		body := wireBody(kind)
		var err error
		if n := allocated(func() { err = (&wire{b: in, dec: true}).decode(body) }); n > decodeBound(len(in)) {
			t.Fatalf("decoding %d bytes as %T allocated %d bytes", len(in), body, n)
		}
		if err == nil {
			enc, err := encodeBody(body)
			if err != nil {
				t.Fatal(err)
			}
			again := wireBody(kind)
			if err := (&wire{b: enc, dec: true}).decode(again); err != nil {
				t.Fatalf("%T %+v encodes to %x, which does not decode: %v", body, body, enc, err)
			}
			if !reflect.DeepEqual(body, again) {
				t.Fatalf("%T: decoded %+v, encoded and decoded again %+v", body, body, again)
			}
			if enc2, _ := encodeBody(again); !bytes.Equal(enc, enc2) {
				t.Fatalf("%T encodes to %x, then to %x", body, enc, enc2)
			}
		}
		// The same bytes as what a manager sends, each frame decoded as
		// the fuzzed kind and answered, so reports recycle their array.
		c := newFrameCodec(sideConn{Reader: bytes.NewReader(append(preamble[:], in...)), Writer: io.Discard})
		if n := allocated(func() {
			for {
				var req rpc.Request
				if c.ReadRequestHeader(&req) != nil {
					return
				}
				c.ReadRequestBody(wireBody(kind))
				c.WriteResponse(&rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}, new(bool))
			}
		}); n > maxFrame+decodeBound(len(in)) {
			t.Fatalf("a %d-byte stream allocated %d bytes", len(in), n)
		}
	})
}

// TestGobPeersAreRefused: the codec's preamble turns a gob peer away
// at its first read, both ways. A gob client of Serve has its
// connection closed, takes no lease and holds no Close up; a manager
// dialing a gob server fails with an error naming the protocol.
func TestGobPeersAreRefused(t *testing.T) {
	space := rpcSpace()
	coord := newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	client, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var batch TaskBatch
	if err := client.Call("Coordinator.NextBatch", BatchRequest{Manager: "gob", Max: 4}, &batch); err == nil {
		t.Fatalf("a gob client leased %+v", batch)
	}
	if pending := coord.Engine().Snapshot().Pending; pending != 0 || len(batch.Tasks) != 0 {
		t.Fatalf("a gob client left %d leases out", pending)
	}
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took >= missedBeats*DefaultHeartbeat/2 {
		t.Fatalf("Close took %v: it waited for the refused gob client", took)
	}

	gobSrv := rpc.NewServer()
	if err := gobSrv.RegisterName("Coordinator", newCoordinator(t, space, explore.NewExhaustive(space), 0, nil)); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go gobSrv.ServeConn(conn)
		}
	}()
	mgr, err := Dial(lis.Addr().String(), "m", rpcTarget())
	if err == nil {
		mgr.Close()
		t.Fatal("a manager dialed a gob coordinator")
	}
	if want := fmt.Sprintf("protocol %d", protoBatched); !strings.Contains(err.Error(), want) {
		t.Fatalf("dial error %q does not name %s", err, want)
	}
}

// lockstep serves a coordinator one lease at a time: a NextBatch waits
// until every task leased before it has been reported, and the
// manager's measured latency is pinned to 0, so what a fitness search
// hands out does not depend on the schedule. It hashes the wire form of
// the Hello reply, each lease and each reported result, in call order
// (a result at a time: a manager may split a lease's report).
type lockstep struct {
	c    *Coordinator
	mu   sync.Mutex
	cond sync.Cond
	out  int // tasks leased and not yet reported
	sum  hash.Hash
}

// write hashes body's wire form. Called under l.mu.
func (l *lockstep) write(body any) {
	enc, _ := encodeBody(body)
	l.sum.Write(enc)
}

func (l *lockstep) Hello(h Hello, reply *HelloReply) error {
	err := l.c.Hello(h, reply)
	l.mu.Lock()
	l.write(reply)
	l.mu.Unlock()
	return err
}

func (l *lockstep) NextBatch(req BatchRequest, batch *TaskBatch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.out > 0 {
		l.cond.Wait()
	}
	req.AvgTestNS = 0
	err := l.c.NextBatch(req, batch)
	l.out += len(batch.Tasks)
	l.write(batch)
	return err
}

func (l *lockstep) ReportBatch(rb ResultBatch, ack *BatchAck) error {
	l.mu.Lock()
	for i := range rb.Results {
		l.write(ResultBatch{Manager: rb.Manager, Backend: rb.Backend, Results: rb.Results[i : i+1]})
	}
	l.mu.Unlock()
	err := l.c.ReportBatch(rb, ack)
	l.mu.Lock()
	l.out -= len(rb.Results)
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

func (l *lockstep) Heartbeat(id string, ack *bool) error { return l.c.Heartbeat(id, ack) }

// roundTrips holds every body its codec writes to its own decoding: the
// value decoded from the bytes must be reflect.DeepEqual to the one
// sent.
type roundTrips struct {
	*frameCodec
	mu   *sync.Mutex
	errs *[]string
}

func (c roundTrips) WriteRequest(r *rpc.Request, body any) error {
	c.check(r.ServiceMethod, body)
	return c.frameCodec.WriteRequest(r, body)
}

func (c roundTrips) WriteResponse(r *rpc.Response, body any) error {
	if r.Error == "" {
		c.check(r.ServiceMethod+" reply", body)
	}
	return c.frameCodec.WriteResponse(r, body)
}

func (c roundTrips) check(what string, body any) {
	enc, err := encodeBody(body)
	sent := reflect.ValueOf(body)
	if sent.Kind() == reflect.Pointer {
		sent = sent.Elem()
	}
	got := reflect.New(sent.Type())
	if err == nil {
		err = (&wire{b: enc, dec: true}).decode(got.Interface())
	}
	if err == nil && !reflect.DeepEqual(got.Elem().Interface(), sent.Interface()) {
		err = fmt.Errorf("sent %+v, decoded %+v", sent.Interface(), got.Elem().Interface())
	}
	if err != nil {
		c.mu.Lock()
		*c.errs = append(*c.errs, fmt.Sprintf("%s: %v", what, err))
		c.mu.Unlock()
	}
}

// TestWireBytesArePinned: a seeded one-manager session — coreutils, the
// fitness search with feedback, seed 7, leases of 32, latency pinned to
// 0 — sends the same bytes and journals the same entries every time:
// testdata/wire.golden holds the SHA-256 of its Hello reply, leases and
// reports in the frame codec, and of its journal. A change to the wire
// form shows up as a diff of the first (go test -run
// TestWireBytesArePinned -update rewrites the file); the second does not
// depend on the codec at all. Every message either end sends decodes
// back to itself.
func TestWireBytesArePinned(t *testing.T) {
	target := targets.Coreutils()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Target: target, Space: coreutilsSpace(target), Iterations: 600, Feedback: true,
		Algorithm: "fitness", Explore: explore.Config{Seed: 7}}
	if err := st.AttachNamed(&cfg, target.Name); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinatorConfig(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetTargetName(target.Name)
	svc := &lockstep{c: coord, sum: sha256.New()}
	svc.cond.L = &svc.mu
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", svc); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		errs []string
	)
	here, there := net.Pipe()
	go srv.ServeCodec(roundTrips{newFrameCodec(there), &mu, &errs})
	runner, err := backend.New(backend.Model, backend.Config{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	mgr := &Manager{ID: "solo", Target: target, Batch: 32, Concurrency: 1, runner: runner, backendName: backend.Model,
		client: rpc.NewClientWithCodec(roundTrips{newFrameCodec(here), &mu, &errs}), sentStacks: map[uint64]bool{}, encoded: map[uint64][]byte{}}
	defer mgr.Close()
	if err := mgr.hello(); err != nil {
		t.Fatal(err)
	}
	n, err := mgr.RunUntilDone()
	if err != nil {
		t.Fatal(err)
	}
	res := coord.Result()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n != cfg.Iterations || res.Executed != cfg.Iterations {
		t.Fatalf("the manager ran %d, the session folded %d, want %d", n, res.Executed, cfg.Iterations)
	}
	for _, e := range errs {
		t.Error(e)
	}
	path, err := store.JournalPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(journal, []byte(`"durationNS"`)) {
		t.Fatal("the model journal carries durations")
	}
	got := fmt.Sprintf("wire %x\njournal %x\n", svc.sum.Sum(nil), sha256.Sum256(journal))
	golden := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the seeded session's hashes moved:\n%swant\n%s", got, want)
	}
}

// TestBatchFrameAllocatesTheArenas: decoding a lease of core.MaxWireBatch
// tasks allocates its frame, the header's method, the TaskBatch, its
// Tasks and its two arenas (coordinates, values) however many tasks it
// carries; decoding a report on a coordinator's connection allocates its
// frame, the method, Manager, Backend and the stacks' arena, and reuses
// the Results array its last reply handed back.
func TestBatchFrameAllocatesTheArenas(t *testing.T) {
	batch := &TaskBatch{Tasks: make([]TaskWire, core.MaxWireBatch)}
	report := &ResultBatch{Manager: "mgr0", Backend: backend.Model, Results: make([]ResultWire, core.MaxWireBatch)}
	for i := range batch.Tasks {
		batch.Tasks[i] = TaskWire{Seq: i, Fault: []int{i, 1, 2}, Vals: []string{fmt.Sprint(i), "read", "2"}}
		report.Results[i] = ResultWire{Seq: i, TestID: i, Failed: true, CrashID: "c", StackHash: 7, Stack: []string{"m!r", "read:b1"},
			Blocks: []byte{1, 2, 3}, ExitStatus: "exit 1"}
	}
	lease := bytes.NewReader(framed(t, batch))
	client := newFrameCodec(sideConn{Reader: lease})
	if n := testing.AllocsPerRun(20, func() {
		lease.Seek(0, io.SeekStart)
		client.r.Reset(lease)
		client.read = false
		var resp rpc.Response
		got := new(TaskBatch)
		if err := client.ReadResponseHeader(&resp); err != nil {
			t.Fatal(err)
		}
		if err := client.ReadResponseBody(got); err != nil || len(got.Tasks) != len(batch.Tasks) {
			t.Fatalf("decoded %d tasks: %v", len(got.Tasks), err)
		}
	}); n != 6 {
		t.Errorf("decoding a lease of %d tasks allocates %v times, want 6", len(batch.Tasks), n)
	}

	var sent bytes.Buffer
	if err := newFrameCodec(sideConn{Writer: &sent}).WriteRequest(&rpc.Request{ServiceMethod: "Coordinator.ReportBatch", Seq: 3}, report); err != nil {
		t.Fatal(err)
	}
	reports := bytes.NewReader(sent.Bytes())
	server := newFrameCodec(sideConn{Reader: reports, Writer: io.Discard})
	var got ResultBatch
	ack := new(BatchAck)
	if n := testing.AllocsPerRun(20, func() {
		reports.Seek(0, io.SeekStart)
		server.r.Reset(reports)
		server.read = false
		var req rpc.Request
		if err := server.ReadRequestHeader(&req); err != nil {
			t.Fatal(err)
		}
		if err := server.ReadRequestBody(&got); err != nil || len(got.Results) != len(report.Results) {
			t.Fatalf("decoded %d results: %v", len(got.Results), err)
		}
		got.Results = nil // the service keeps nothing of it
		if err := server.WriteResponse(&rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}, ack); err != nil {
			t.Fatal(err)
		}
	}); n != 5 {
		t.Errorf("decoding a report of %d results allocates %v times, want 5", len(report.Results), n)
	}
}
