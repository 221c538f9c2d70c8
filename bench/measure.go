package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"afex/internal/core"
)

// meter measures one timed region: wall clock, CPU (user+sys of this
// process and of its reaped children) and bytes allocated.
type meter struct {
	start       time.Time
	self, child time.Duration
	alloc       uint64
}

// usage is what a stopped meter read; cpu includes childCPU.
type usage struct {
	wall, cpu, childCPU time.Duration
	allocBytes          uint64
}

// threadCPU reads the calling thread's CPU clock (Linux's
// CLOCK_THREAD_CPUTIME_ID), which, unlike getrusage for one thread, is
// exact between scheduler ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// startMeter collects garbage first, so one repetition's heap does not
// bill its collection to the next, then starts the clocks.
func startMeter() meter {
	runtime.GC()
	return meter{
		start: time.Now(),
		self:  rusage(syscall.RUSAGE_SELF),
		child: rusage(syscall.RUSAGE_CHILDREN),
		alloc: totalAlloc(),
	}
}

func (m meter) stop() usage {
	wall := time.Since(m.start)
	child := rusage(syscall.RUSAGE_CHILDREN) - m.child
	return usage{
		wall:       wall,
		cpu:        rusage(syscall.RUSAGE_SELF) - m.self + child,
		childCPU:   child,
		allocBytes: totalAlloc() - m.alloc,
	}
}

// median returns the middle value (mean of the middle two for even n);
// NaN for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the exclusive
// method — what Python's statistics.quantiles(v, n=4) returns, which is
// how the repeatability rule is stated. It needs at least two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		lo := int(math.Floor(h))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// sample is one reported metric: the median of its repetitions, with
// the extremes and the sample count. Time-valued metrics are at the
// reference machine speed (see atReference); Raw is then the median as
// the clock read it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Raw   float64 `json:"raw,omitempty"`
}

// summarize folds one metric's per-repetition values, each measured on
// the machine of the same index, into a sample.
func summarize(m metricDef, v []float64, on []machine) sample {
	if len(v) == 0 {
		return sample{Unit: m.Unit}
	}
	at := make([]float64, len(v))
	for i := range v {
		at[i] = atReference(m, v[i], on[i])
	}
	lo, hi := at[0], at[0]
	for _, x := range at {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	s := sample{Value: median(at), Unit: m.Unit, Min: lo, Max: hi, N: len(v)}
	if raw := median(v); raw != s.Value {
		s.Raw = raw
	}
	return s
}

// spinMops runs a fixed xorshift loop for d and returns millions of
// steps per second: a register-only calibration figure recorded with
// every result file, so that a throttled core shows next to the
// results. (On the box this was built on it barely moves — 6% — while
// sessions swing by 40%: the neighbours' noise is on the memory side,
// which is why machineSpeed below uses a different kernel.)
func spinMops(d time.Duration) float64 {
	var x, n uint64 = 88172645463325252, 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 10000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += 10000
	}
	if x == 0 { // never: keeps the loop's result live
		n++
	}
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// Machine-speed calibration. On a shared box one and the same session
// runs at speeds 40% apart from one minute to the next, in regimes that
// last from seconds to minutes — far more than any bound worth having.
// A fixed kernel run between repetitions tracks those regimes (run-level
// correlation with session throughput 0.94–0.98 on all five workloads
// while the machine drifted), so every time-valued metric is reported at
// a reference speed: durations are multiplied by
// (speed/referenceSpeed)^speedExponent, rates divided by it. The raw
// readings stay in the result file.
const (
	// referenceSpeed is the kernel speed, in millions of steps per
	// second, all time-valued metrics are converted to: about what the
	// box this was built on reaches when its neighbours are quiet. It is
	// a unit, not a measurement; changing it rescales every number.
	referenceSpeed = 4.0
	// referenceCPUSpeed is the same for CPU-time metrics: the kernel's
	// steps per second of its own thread's CPU time, which on the quiet
	// box is a little over its wall speed (the thread waits on the
	// collector now and then).
	referenceCPUSpeed = 4.5
	// speedExponent damps the conversion. A 0.3 s lap reads the machine
	// with an error of its own (about a tenth), and the kernel loses more
	// to a noisy neighbour than a session does, so holding a session to
	// the kernel one for one over-corrects: a session measured while the
	// kernel read half speed came out a third too fast. 0.6 is the
	// least-squares slope of log session rate on log kernel speed over 800
	// repetitions of all five workloads (0.35–0.8 workload by workload);
	// on those runs it takes the widest run-to-run spread of
	// scenarios_per_s from 32% (exponent 1; 30% uncorrected) to 14%.
	speedExponent = 0.6
	// calibrateFor is how long one calibration run lasts (divided, like
	// the budgets, by the package test's scale).
	calibrateFor = 300 * time.Millisecond
)

// machine is the calibration kernel's speed, in millions of steps per
// second of wall clock and per second of its thread's CPU time. The two
// part when the box takes the processor away (steal, a descheduled
// vCPU): the wall clock slows and CPU time does not, so CPU-time metrics
// are held to the CPU speed and everything else to the wall speed.
type machine struct{ wall, cpu float64 }

// machineSpeed runs the calibration kernel for d. The kernel is the
// memory-bound mix the engine itself is made of — string building, map
// inserts, small allocations, a sort — because that, not arithmetic, is
// what a noisy neighbour slows. It collects garbage first: left to the
// heap goal of the session that ran before it, the kernel would allocate
// into fresh pages without a collection and read a third of its speed,
// measuring the session's heap and not the machine.
func machineSpeed(d time.Duration) machine {
	runtime.GC()
	runtime.LockOSThread() // the kernel's own CPU time, without the collector's workers
	defer runtime.UnlockOSThread()
	start, cpu := time.Now(), threadCPU()
	steps := 0
	m := make(map[string]int, 1<<12)
	buf := make([]byte, 0, 32)
	var keep [][]string
	for time.Since(start) < d {
		for i := 0; i < 2000; i++ {
			buf = strconv.AppendInt(buf[:0], int64(i*7919+steps), 10)
			k := string(buf)
			m[k] += i
			if i%16 == 0 {
				st := make([]string, 8)
				for j := range st {
					st[j] = k
				}
				keep = append(keep, st)
			}
		}
		if len(m) > 1<<15 {
			m = make(map[string]int, 1<<12)
		}
		if len(keep) > 4096 {
			sort.Slice(keep, func(a, b int) bool { return keep[a][0] < keep[b][0] })
			keep = keep[:0]
		}
		steps += 2000
	}
	wall, cpu := time.Since(start), threadCPU()-cpu
	if cpu <= 0 { // no thread clock: the wall clock is the best guess
		cpu = wall
	}
	msteps := float64(steps) / 1e6
	return machine{wall: msteps / wall.Seconds(), cpu: msteps / cpu.Seconds()}
}

// speedometer holds the last calibration, so that each measurement is
// held to the mean of the two calibrations that flank it; every
// calibration runs for d.
type speedometer struct {
	d    time.Duration
	last machine
}

func newSpeedometer(d time.Duration) *speedometer {
	machineSpeed(d / 3) // the kernel's own warm-up
	return &speedometer{d: d, last: machineSpeed(d)}
}

// lap calibrates again and returns the machine around what ran since
// the previous calibration.
func (s *speedometer) lap() machine {
	now := machineSpeed(s.d)
	around := machine{wall: (s.last.wall + now.wall) / 2, cpu: (s.last.cpu + now.cpu) / 2}
	s.last = now
	return around
}

// atReference converts a value of metric m measured on the given
// machine to what it reads at the reference speed: durations scale with
// the (damped) speed, rates against it, and anything that is not a time
// is left alone.
func atReference(m metricDef, v float64, on machine) float64 {
	speed := on.wall / referenceSpeed
	if m.CPUTime {
		speed = on.cpu / referenceCPUSpeed
	}
	speed = math.Pow(speed, speedExponent)
	switch m.Unit {
	case "s", "ms", "us", "ns":
		return v * speed
	case "1/s":
		return v / speed
	}
	return v
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src (a flat state directory)
// into the new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// outcomeClass names what a record's sensors observed.
func outcomeClass(rec *core.Record) string {
	out := rec.Outcome
	switch {
	case out.Hung:
		return "hang"
	case out.Crashed:
		return "crash"
	case out.Failed:
		return "fail"
	case out.Injected:
		return "injected"
	}
	return "clean"
}

// recordDigest folds (point key, outcome class, cluster id) of every
// record, in execution order, into one hash — the identity of a
// deterministic session's search.
type recordDigest struct{ h hash.Hash }

func newRecordDigest() *recordDigest { return &recordDigest{h: sha256.New()} }

func (d *recordDigest) add(key string, rec *core.Record) {
	fmt.Fprintf(d.h, "%s|%s|%d\n", key, outcomeClass(rec), rec.Cluster)
}

func (d *recordDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
