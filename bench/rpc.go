package main

// rpc-loopback: one coordinator, two managers, real loopback TCP.
//
// Untraced, the product's own pieces do everything: a coordinator from
// afex.NewCoordinatorWithOptions behind afex.ServeCoordinator, and two
// afex.DialManager managers running RunUntilDone. The probe repetition
// puts a byte-counting proxy between them for wire bytes per scenario.
//
// Traced, the coordinator is the same type over a wrapped explorer, but
// it is served by the benchmark's own net/rpc service, which times each
// direct Coordinator.NextBatch/ReportBatch call, and driven by the
// benchmark's own synchronous manager loop, which times each round trip
// and each test; a round trip minus the direct call it carried is the
// wire (gob encode/decode, net/rpc dispatch, loopback TCP).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/rpc"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"afex"
	"afex/internal/backend"
	"afex/internal/core"
	"afex/internal/explore"
	"afex/internal/inject"
	"afex/internal/prog"
	"afex/internal/rpcnode"
)

// rpcManagers is the number of managers (and connections): nproc.
const rpcManagers = 2

type rpcFixture struct {
	target *prog.Program
	space  *afex.Space
	seed   int64
	budget int
}

// setupRPCLoopback: coreutils model, testID × 19 functions × callNumber
// [1,5000] (2.75 M points, so that a 150 000-test budget does not turn
// the fitness explorer's rejection sampling into the dominant cost),
// fitness-guided, batched adaptive protocol, default heartbeats, budget
// 150 000, no store.
func setupRPCLoopback(env *benchEnv, seed int64) (fixture, error) {
	target, err := afex.Target("coreutils")
	if err != nil {
		return nil, err
	}
	f := &rpcFixture{
		target: target,
		space:  afex.SpaceFor(target, 19, 1, 5000),
		seed:   seed,
		budget: env.scaled(150000),
	}
	// The warm-up session (see warmShare).
	full := f.budget
	f.budget = max(1, full/warmShare)
	_, _, _, err = f.runPlain(false)
	f.budget = full
	return f, err
}

func (f *rpcFixture) close() error { return nil }

func (f *rpcFixture) rep(mode repMode) (*repResult, error) {
	var (
		r          *repResult
		res        *core.ResultSet
		perManager map[string]int
		err        error
	)
	if mode == modeTraced {
		r, res, perManager, err = f.runTraced()
	} else {
		r, res, perManager, err = f.runPlain(mode == modeProbe)
	}
	if err != nil {
		return nil, err
	}
	f.verify(res, perManager, r)
	return r, nil
}

// runPlain is the untraced distributed session: coordinator
// construction through Result and the closing of both ends on the
// clock.
func (f *rpcFixture) runPlain(proxied bool) (*repResult, *core.ResultSet, map[string]int, error) {
	m := startMeter()
	coord, closeStore, err := afex.NewCoordinatorWithOptions(afex.CoordinatorOptions{
		TargetName: f.target.Name,
		Space:      f.space,
		Algorithm:  afex.FitnessGuided,
		Explore:    afex.ExploreOptions{Seed: f.seed},
		Budget:     f.budget,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := afex.ServeCoordinator("127.0.0.1:0", coord)
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		proxy    *countingProxy
		managers []*afex.Manager
	)
	// shutdown closes both ends in the order a session ends: managers,
	// listener, proxy, store.
	shutdown := func() error {
		for _, mg := range managers {
			mg.Close()
		}
		srv.Close()
		if proxy != nil {
			proxy.close()
		}
		return closeStore()
	}
	addr := srv.Addr()
	if proxied {
		if proxy, err = newCountingProxy(addr); err != nil {
			shutdown()
			return nil, nil, nil, err
		}
		addr = proxy.addr()
	}
	for i := 0; i < rpcManagers; i++ {
		mg, err := afex.DialManager(addr, fmt.Sprintf("mgr%d", i), f.target)
		if err != nil {
			shutdown()
			return nil, nil, nil, err
		}
		mg.Concurrency = 1
		managers = append(managers, mg)
	}
	counts := make([]int, rpcManagers)
	errs := make([]error, rpcManagers)
	var wg sync.WaitGroup
	for i, mg := range managers {
		wg.Add(1)
		go func(i int, mg *afex.Manager) {
			defer wg.Done()
			counts[i], errs[i] = mg.RunUntilDone()
		}(i, mg)
	}
	wg.Wait()
	res := coord.Result()
	if err := shutdown(); err != nil {
		return nil, nil, nil, err
	}
	r := &repResult{use: m.stop(), layer: map[string]float64{}, probeOnly: proxied}
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("manager %d: %w", i, err)
		}
	}
	reported := 0
	for _, n := range counts {
		reported += n
	}
	r.fail(abs(reported-res.Executed), "managers reported %d results, coordinator folded %d", reported, res.Executed)
	if proxy != nil && res.Executed > 0 {
		r.layer["rpcnode.wire_bytes_per_scenario"] = float64(proxy.bytes.Load()) / float64(res.Executed)
	}
	return r, res, coord.Snapshot().PerManager, nil
}

// countingProxy forwards loopback TCP connections to upstream and
// counts the bytes that cross it in both directions.
type countingProxy struct {
	lis      net.Listener
	upstream string
	bytes    atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
}

func newCountingProxy(upstream string) (*countingProxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{lis: lis, upstream: upstream}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.lis.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.upstream)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(up, down)
		go p.pipe(down, up)
	}
}

// pipe copies src to dst until either side closes, then closes both so
// the opposite pipe ends too.
func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	n, _ := io.Copy(dst, src)
	p.bytes.Add(n)
	dst.Close()
	src.Close()
}

// close stops the proxy and waits for every goroutine it started.
func (p *countingProxy) close() {
	p.lis.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// tracedCoordinator is the benchmark's net/rpc service: the product's
// coordinator behind it, a span around each direct batched call.
type tracedCoordinator struct {
	c  *rpcnode.Coordinator
	tr *tracer
}

func (s *tracedCoordinator) Hello(h rpcnode.Hello, reply *rpcnode.HelloReply) error {
	return s.c.Hello(h, reply)
}

func (s *tracedCoordinator) NextBatch(req rpcnode.BatchRequest, batch *rpcnode.TaskBatch) error {
	defer s.tr.end(spRPCNextCall, time.Now())
	return s.c.NextBatch(req, batch)
}

func (s *tracedCoordinator) ReportBatch(rb rpcnode.ResultBatch, ack *rpcnode.BatchAck) error {
	defer s.tr.end(spRPCReportCall, time.Now())
	return s.c.ReportBatch(rb, ack)
}

// serveTraced serves svc as "Coordinator" on a loopback port. stop
// closes the listener and every accepted connection and waits for the
// serving goroutines.
func serveTraced(svc *tracedCoordinator) (addr string, stop func(), err error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", svc); err != nil {
		return "", nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return // listener closed
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.ServeConn(conn)
			}()
		}
	}()
	stop = func() {
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
	return lis.Addr().String(), stop, nil
}

// wireProtoBatched is the batched protocol generation a manager offers
// in its Hello.
const wireProtoBatched = 2

// encodeBlocks renders a covered-block set in the batched wire form:
// sorted uvarint deltas.
func encodeBlocks(blocks map[int]struct{}) []byte {
	if len(blocks) == 0 {
		return nil
	}
	ids := make([]int, 0, len(blocks))
	for b := range blocks {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	buf := make([]byte, 0, len(ids)+binary.MaxVarintLen64)
	prev := 0
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// tracedManager is the benchmark's own manager loop: synchronous (lease
// a batch, execute it, report it), so every span nests in the one that
// caused it. It speaks the batched protocol through the exported wire
// types, interning stacks by content hash the way rpcnode.Manager does.
func tracedManager(addr, id string, runner backend.Runner, tr *tracer) (int, error) {
	defer tr.end(spWorker, time.Now())
	t := time.Now()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	var hello rpcnode.HelloReply
	if err := client.Call("Coordinator.Hello", rpcnode.Hello{Manager: id, Proto: wireProtoBatched}, &hello); err != nil {
		return 0, err
	}
	if hello.Proto != wireProtoBatched {
		return 0, fmt.Errorf("coordinator negotiated protocol %d, want the batched protocol", hello.Proto)
	}
	tr.end(spRPCDial, t)
	var (
		plugin   inject.Plugin
		sent     = make(map[uint64]bool)
		runNS    int64
		executed int
	)
	for {
		req := rpcnode.BatchRequest{Manager: id}
		if executed > 0 {
			req.AvgTestNS = runNS / int64(executed)
		}
		var batch rpcnode.TaskBatch
		t = time.Now()
		if err := client.Call("Coordinator.NextBatch", req, &batch); err != nil {
			return executed, err
		}
		tr.end(spRPCNextTrip, t)
		if batch.Done {
			return executed, nil
		}
		if batch.Retry {
			runtime.Gosched()
			continue
		}
		results := make([]rpcnode.ResultWire, 0, len(batch.Tasks))
		for _, tw := range batch.Tasks {
			t = time.Now()
			rw := rpcnode.ResultWire{Seq: tw.Seq}
			pt, plan, err := plugin.ConvertValues(hello.AxisNames[tw.Sub], tw.Vals)
			if err != nil {
				rw.Skipped = true
			} else {
				t0 := time.Now()
				out, ex := runner.Run(pt.TestID, plan)
				runNS += int64(time.Since(t0))
				rw.TestID = pt.TestID
				rw.Failed, rw.Crashed, rw.Hung, rw.Injected = out.Failed, out.Crashed, out.Hung, out.Injected
				rw.CrashID = out.CrashID
				rw.Blocks = encodeBlocks(out.Blocks)
				rw.ExitStatus, rw.DurationNS = ex.ExitStatus, int64(ex.Duration)
				if len(out.InjectionStack) > 0 {
					h := fnv.New64a()
					for _, fr := range out.InjectionStack {
						h.Write([]byte(fr))
						h.Write([]byte{0})
					}
					rw.StackHash = h.Sum64()
					if !sent[rw.StackHash] {
						sent[rw.StackHash] = true
						rw.Stack = out.InjectionStack
					}
				}
			}
			executed++
			results = append(results, rw)
			tr.end(spExecute, t)
		}
		var ack rpcnode.BatchAck
		t = time.Now()
		if err := client.Call("Coordinator.ReportBatch", rpcnode.ResultBatch{Manager: id, Backend: backend.Model, Results: results}, &ack); err != nil {
			return executed, err
		}
		tr.end(spRPCReportTrip, t)
		if ack.Folded != len(results) {
			return executed, fmt.Errorf("coordinator folded %d of %d reported results", ack.Folded, len(results))
		}
	}
}

// runTraced is the traced distributed session.
func (f *rpcFixture) runTraced() (*repResult, *core.ResultSet, map[string]int, error) {
	tr := &tracer{}
	m := startMeter()
	t := time.Now()
	inner, err := explore.New(afex.FitnessGuided, f.space, explore.Config{Seed: f.seed})
	if err != nil {
		return nil, nil, nil, err
	}
	ex := &tracedExplorer{in: inner, tr: tr}
	coord, err := rpcnode.NewCoordinatorConfig(core.Config{Space: f.space, Iterations: f.budget}, ex, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	coord.SetTargetName(f.target.Name)
	addr, stop, err := serveTraced(&tracedCoordinator{c: coord, tr: tr})
	if err != nil {
		return nil, nil, nil, err
	}
	name := registerTracedBackend(backend.Model, tr)
	runners := make([]backend.Runner, rpcManagers)
	for i := range runners {
		if runners[i], err = backend.New(name, backend.Config{Target: f.target}); err != nil {
			for _, rn := range runners[:i] {
				rn.Close()
			}
			stop()
			return nil, nil, nil, err
		}
	}
	tr.end(spConstruct, t)

	counts := make([]int, rpcManagers)
	errs := make([]error, rpcManagers)
	var wg sync.WaitGroup
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i], errs[i] = tracedManager(addr, fmt.Sprintf("mgr%d", i), runners[i], tr)
		}(i)
	}
	wg.Wait()
	t = time.Now()
	res := coord.Result()
	tr.end(spFinish, t)
	for _, rn := range runners {
		rn.Close()
	}
	stop()
	r := &repResult{use: m.stop(), layer: map[string]float64{}, spans: tr.export()}
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("traced manager %d: %w", i, err)
		}
	}
	reported := 0
	for _, n := range counts {
		reported += n
	}
	r.fail(abs(reported-res.Executed), "managers reported %d results, coordinator folded %d", reported, res.Executed)

	n := float64(res.Executed)
	if n == 0 {
		return nil, nil, nil, fmt.Errorf("traced session executed nothing")
	}
	perScenario := func(d time.Duration) float64 { return float64(d) / n }
	events := make([]replayEvent, len(res.Records))
	for i := range res.Records {
		events[i] = eventOf(res.Records[i].Outcome)
	}
	cl := replayCluster(events, false, 0, nil)

	next, report := tr.total(spExploreNext), tr.total(spExploreReport)
	run := tr.total(spBackendRun)
	nextCall, reportCall := tr.total(spRPCNextCall), tr.total(spRPCReportCall)
	wire := tr.total(spRPCDial) + tr.total(spRPCNextTrip) - nextCall + tr.total(spRPCReportTrip) - reportCall
	managerSelf := tr.total(spExecute) - run
	add := min(cl.add, reportCall-report)

	l := r.layer
	l["explore.next_ns_per_scenario"] = perScenario(next)
	l["explore.report_ns_per_scenario"] = perScenario(report)
	l["backend.run_ns_per_scenario"] = perScenario(run)
	l["backend.spawn_ms"] = float64(tr.total(spBackendSpawn)) / float64(time.Millisecond)
	l["core.finish_ms"] = float64(tr.total(spFinish)) / float64(time.Millisecond)
	cl.report(l, n)
	l["rpcnode.next_batch_ns_per_scenario"] = perScenario(nextCall)
	l["rpcnode.report_batch_ns_per_scenario"] = perScenario(reportCall)
	l["rpcnode.wire_ns_per_scenario"] = perScenario(wire)
	if trips := tr.count(spRPCNextTrip); trips > 0 {
		l["rpcnode.mean_batch"] = n / float64(trips)
	}
	serial := tr.total(spConstruct) + tr.total(spFinish)
	covered := tr.total(spRPCDial) + tr.total(spRPCNextTrip) + tr.total(spRPCReportTrip) + tr.total(spExecute) + serial
	l["trace.attribution_ratio"] = float64(covered) / float64(tr.total(spWorker)+serial)
	// The coordinator's direct calls run the engine's lease and fold
	// inside the protocol adapter; from outside the two are one layer,
	// booked to rpcnode together with the wire and the manager's own
	// conversion work.
	shares(l, map[string]time.Duration{
		"explore": next + report,
		"core":    tr.total(spConstruct) - tr.total(spBackendSpawn) + tr.total(spFinish),
		"backend": run + tr.total(spBackendSpawn),
		"cluster": add,
		"rpcnode": (nextCall - next) + (reportCall - report - add) + wire + managerSelf,
	})
	return r, res, coord.Snapshot().PerManager, nil
}

// verify: the budget landed exactly, no key folded twice, and the
// per-manager counts sum to the budget.
func (f *rpcFixture) verify(res *core.ResultSet, perManager map[string]int, r *repResult) {
	r.scenarios = res.Executed
	r.clusters = res.UniqueFailures
	r.attempted = f.budget
	r.fail(abs(res.Executed-f.budget), "executed %d scenarios, budget %d", res.Executed, f.budget)
	seen := make(map[string]struct{}, len(res.Records))
	dups := 0
	for i := range res.Records {
		key := res.Records[i].Point.Key()
		if _, dup := seen[key]; dup {
			dups++
		}
		seen[key] = struct{}{}
	}
	r.fail(dups, "%d scenario keys folded twice", dups)
	total := 0
	for _, n := range perManager {
		total += n
	}
	r.fail(abs(total-f.budget), "per-manager counts sum to %d, budget %d", total, f.budget)
	if len(perManager) != rpcManagers {
		r.fail(1, "%d managers took part, want %d", len(perManager), rpcManagers)
	}
}
