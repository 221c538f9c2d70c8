package rpcnode

import (
	"net"
	"net/rpc"
	"sync/atomic"
	"testing"
	"time"

	"afex/internal/backend"
	"afex/internal/explore"
	"afex/internal/faultspace"
)

// Wire-protocol benchmarks: adaptive pipelined batches against one task
// per round trip (Manager.Batch = 1), over real loopback TCP. Run with:
//
//	go test ./internal/rpcnode -bench=BenchmarkRPCThroughput -benchtime=1x

// benchRPCSpace widens rpcSpace's callNumber axis so a throughput run
// has thousands of points to sweep (4 × maxCall).
func benchRPCSpace(maxCall int) *faultspace.Union {
	return faultspace.NewUnion(faultspace.New("s",
		faultspace.IntAxis("testID", 0, 1),
		faultspace.SetAxis("function", "read", "write"),
		faultspace.IntAxis("callNumber", 1, maxCall),
	))
}

// measureRPC sweeps budget tests through one manager on the model
// backend and returns scenarios/second. batch is Manager.Batch: 1
// leases one task per round trip, 0 adaptively.
func measureRPC(tb testing.TB, budget, batch int) float64 {
	space := benchRPCSpace((budget + 3) / 4 * 2)
	coord := newCoordinator(tb, space, explore.NewExhaustive(space), budget, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	mgr, err := Dial(srv.Addr(), "bench", rpcTarget())
	if err != nil {
		tb.Fatal(err)
	}
	defer mgr.Close()
	mgr.Batch = batch
	start := time.Now()
	n, err := mgr.RunUntilDone()
	elapsed := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if n != budget {
		tb.Fatalf("executed %d tests, want the %d budget", n, budget)
	}
	return float64(n) / elapsed.Seconds()
}

func BenchmarkRPCThroughput(b *testing.B) {
	const budget = 2000
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measureRPC(b, budget, 1), "scenarios/sec")
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(measureRPC(b, budget, 0), "scenarios/sec")
		}
	})
}

// countingConn counts every byte crossing the manager's connection, in
// both directions.
type countingConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// measureWireBytes sweeps a 200-point space through one manager over a
// byte-counting loopback connection and returns the measured wire cost
// per executed test (both directions, gob framing included) plus the
// executed count.
func measureWireBytes(tb testing.TB, batch int) (float64, int) {
	space := benchRPCSpace(50)
	coord := newCoordinator(tb, space, explore.NewExhaustive(space), 0, nil)
	srv, err := Serve("127.0.0.1:0", coord)
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()

	target := rpcTarget()
	runner, err := backend.New(backend.Model, backend.Config{Target: target})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		runner.Close()
		tb.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	mgr := &Manager{
		ID:          "wire",
		Target:      target,
		Batch:       batch,
		client:      rpc.NewClient(cc),
		runner:      runner,
		backendName: backend.Model,
		sentStacks:  make(map[uint64]bool),
		encoded:     make(map[uint64][]byte),
	}
	defer mgr.Close()
	if err := mgr.hello(); err != nil {
		tb.Fatal(err)
	}

	n, err := mgr.RunUntilDone()
	if err != nil {
		tb.Fatal(err)
	}
	if int64(n) != space.Size() {
		tb.Fatalf("executed %d tests, want the whole %d-point space", n, space.Size())
	}
	return float64(cc.bytes.Load()) / float64(n), n
}
