package backend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afex/internal/inject"
	"afex/internal/libc"
	"afex/internal/prog"
	"afex/shim"
)

// FuzzAppendPlan: the append encoder writes, for any plan, the bytes
// json.Marshal gives the plan's shim.PlanWire — what an old fixture's
// shim, or a third party's, decodes with a JSON library — and, when every
// name is printable ASCII, a line the shim's canonical decoder reads back
// to the plan without falling back to encoding/json.
func FuzzAppendPlan(f *testing.F) {
	f.Add(0, 0, 0, "", 0, "", 0, "", 0, "", 0)
	f.Add(2, 7, 1, "read", 2, "EIO", -1, "", 0, "", 0)
	f.Add(1, 1, 2, "malloc", 1, "ENOMEM", 0, "write", 3, "", -1)
	f.Add(-1, -1, 2, "a\"b\\c<d>&e\x01\x7f \xff", -5, " é", 1<<40, "\n", 0, "\t", 0)
	f.Add(math.MaxInt, math.MinInt, 2, "read", math.MinInt, "", math.MaxInt, "~ !", -9, "ENOSPC", 10)
	f.Fuzz(func(t *testing.T, testID, seq, faults int, fn1 string, call1 int, errno1 string, ret1 int, fn2 string, call2 int, errno2 string, ret2 int) {
		all := []inject.Fault{
			{Function: fn1, CallNumber: call1, Err: libc.ErrorReturn{Errno: errno1, Retval: ret1}},
			{Function: fn2, CallNumber: call2, Err: libc.ErrorReturn{Errno: errno2, Retval: ret2}},
		}
		plan := inject.Plan{Faults: all[:min(max(faults, 0), 2)]}
		wire := shim.PlanWire{TestID: testID, Seq: seq, Faults: []shim.FaultWire{}}
		for _, ft := range plan.Faults {
			wire.Faults = append(wire.Faults, shim.FaultWire{
				Function: ft.Function, CallNumber: ft.CallNumber, Errno: ft.Err.Errno, Retval: ft.Err.Retval,
			})
		}
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		got := appendPlan(nil, testID, seq, plan)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendPlan(%d, %d, %+v)\n got %q\nwant %q", testID, seq, plan, got, want)
		}
		for _, ft := range wire.Faults {
			if !printable(ft.Function) || !printable(ft.Errno) {
				return
			}
		}
		var back shim.PlanWire
		if canonical, err := new(shim.PlanDecoder).Decode(got, &back); !canonical || err != nil || !reflect.DeepEqual(back, wire) {
			t.Fatalf("line %q decoded to %+v (canonical %v, %v), want %+v", got, back, canonical, err, wire)
		}
	})
}

// printable reports whether encoding/json writes s as itself: printable
// ASCII that JSON and HTML leave alone.
func printable(s string) bool {
	return !strings.ContainsFunc(s, func(c rune) bool { return c < ' ' || c > '~' || strings.ContainsRune(`"\<>&`, c) })
}

// referenceEvents is the report stream read the plain way: split at
// newlines, drop the unterminated tail and every line that does not fit
// a reader of size max, json.Unmarshal the rest and drop what fails; an
// empty Blocks is nil.
func referenceEvents(stream []byte, max int) []shim.Event {
	var evs []shim.Event
	for {
		i := bytes.IndexByte(stream, '\n')
		if i < 0 {
			return evs
		}
		line := stream[:i+1]
		stream = stream[i+1:]
		var ev shim.Event
		if len(line) <= max && json.Unmarshal(line, &ev) == nil {
			if len(ev.Blocks) == 0 {
				ev.Blocks = nil
			}
			evs = append(evs, ev)
		}
	}
}

// readEvents decodes the stream into one reused event, as runGroup
// reuses its storage, keeping a copy of each; an empty Blocks is nil.
func readEvents(stream []byte, max int) []shim.Event {
	rd := bufio.NewReaderSize(bytes.NewReader(stream), max)
	var evs []shim.Event
	var ev shim.Event
	for {
		if err := nextEvent(rd, &ev); err != nil {
			return evs
		}
		c := ev
		c.Blocks = nil
		if len(ev.Blocks) > 0 {
			c.Blocks = slices.Clone(ev.Blocks)
		}
		evs = append(evs, c)
	}
}

// FuzzReportLine: whatever bytes a fixture writes on its report pipe,
// the supervisor's reader does not panic, decodes every line it accepts
// to what json.Unmarshal makes of it — into one reused event, so a field
// left over from an earlier line shows — and skips the rest, over-long
// lines included, without losing its place in the stream.
func FuzzReportLine(f *testing.F) {
	f.Add([]byte(`{"e":"ready"}` + "\n" + `{"e":"inject","function":"read","call":2,"stack":["main.main:12","main.readConfig:40"]}` + "\n" +
		`{"e":"blocks","blocks":[1,3,4,5]}` + "\n" + `{"e":"done","exit":1,"seq":1}` + "\n"))
	f.Add([]byte(`{"e":"crash","id":"crashy/unchecked-malloc"}` + "\n" + `{"e":"inj`))
	f.Add([]byte("not json\n\n" + `{"e":"done","seq":"x"}` + "\n" + `{"e":"blocks","blocks":[` + strings.Repeat("7,", 40) + `7]}` + "\n" + `{"e":"done","seq":2}` + "\n"))
	f.Add([]byte(`{"e":"blocks","blocks":[2,1]}` + "\n" + `{"e":"blocks","blocks":[]}` + "\n" + `{"e":"blocks","blocks":[3],"blocks":null}` + "\n" +
		`{"E":"done","Exit":1}` + "\n" + `{"seq":3,"e":"done"}` + "\n" + `{ "e":"inject","function":"r\u0065ad","stack":["é"]}` + "\n" +
		`{"e":"done","call":0,"exit":-0,"seq":01}` + "\n" + `{"e":"done","seq":9223372036854775808}` + "\n" + `{"e":"blocks","blocks":[1.0]}` + "\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		// 64 is bufio's smallest useful size: the fuzzer reaches the
		// over-long path with short inputs.
		const max = 64
		if got, want := readEvents(stream, max), referenceEvents(stream, max); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %q\n got %+v\nwant %+v", stream, got, want)
		}
	})
}

// TestOverlongReportLineIsSkipped: a report line past reportLineMax is
// dropped whole, and the events behind it still arrive — the stream does
// not desynchronise.
func TestOverlongReportLineIsSkipped(t *testing.T) {
	long := `{"e":"inject","function":"` + strings.Repeat("x", reportLineMax+6<<10) + `"}`
	stream := `{"e":"blocks","blocks":[1]}` + "\n" + long + "\n" + `{"e":"done","exit":1,"seq":4}` + "\n"
	rd := bufio.NewReaderSize(strings.NewReader(stream), reportLineMax)
	var kinds []string
	for {
		var ev shim.Event
		if err := nextEvent(rd, &ev); err != nil {
			if err != io.EOF {
				t.Fatalf("stream ended with %v, want EOF", err)
			}
			break
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == shim.EventDone && (ev.Seq != 4 || ev.Exit != 1) {
			t.Errorf("done after the long line = %+v, want seq 4 exit 1", ev)
		}
	}
	if want := []string{shim.EventBlocks, shim.EventDone}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("decoded %v, want %v", kinds, want)
	}
}

// TestKnownCoverageFoldAllocatesNothing: a canonical blocks + done pair
// for a coverage set the runner has already interned decodes into reused
// events and folds with no allocation.
func TestKnownCoverageFoldAllocatesNothing(t *testing.T) {
	stream := []byte(`{"e":"blocks","blocks":[1,3,4,5]}` + "\n" + `{"e":"done","exit":1,"seq":1}` + "\n")
	src := bytes.NewReader(stream)
	rd := bufio.NewReaderSize(src, reportLineMax)
	events := make([]shim.Event, 2)
	var sets prog.BlockSets
	fold := func() {
		src.Reset(stream)
		rd.Reset(src)
		for i := range events {
			if err := nextEvent(rd, &events[i]); err != nil {
				t.Fatal(err)
			}
		}
		out, _ := foldEvents(events[:1], &sets)
		var ex Exec
		foldExit(&out, &ex, events[1].Exit)
		if len(out.Blocks) != 4 || ex.ExitStatus != "exit:1" || events[1].Seq != 1 {
			t.Fatalf("folded %v %s from %+v", out.Blocks, ex.ExitStatus, events)
		}
	}
	fold()
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Errorf("a known set costs %v allocations a scenario, want 0", n)
	}
}
