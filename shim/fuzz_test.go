package shim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzAppendEvent: the append encoder writes, for any field values, the
// line json.Encoder writes — the supervisor (and a third-party one) may
// decode with any JSON library — and, when every string is printable
// ASCII, a line DecodeEvent reads back to the event without falling back
// to encoding/json.
func FuzzAppendEvent(f *testing.F) {
	f.Add("inject", "read", 2, "main.main:12\x00main.readConfig:40", []byte{}, "", 0, 0)
	f.Add("blocks", "", 0, "", []byte{3, 7, 40}, "", 0, 0)
	f.Add("crash", "", 0, "", []byte{}, "fixture/unchecked-malloc", 0, 0)
	f.Add("done", "", 0, "", []byte{}, "", 1, 3)
	f.Add("ready", "", 0, "", []byte{}, "", 0, 0)
	f.Add("inject", "a\"b\\c<d>&e\x01\x7f \xff", -1, "\n\x00\t", []byte{0}, "é", -2, -3)
	f.Fuzz(func(t *testing.T, kind, function string, call int, stack string, blocks []byte, id string, exit, seq int) {
		ev := Event{Kind: kind, Function: function, Call: call, ID: id, Exit: exit, Seq: seq}
		if stack != "" {
			ev.Stack = strings.Split(stack, "\x00")
		}
		for _, b := range blocks {
			ev.Blocks = append(ev.Blocks, int(b)-3)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ev); err != nil {
			t.Fatal(err)
		}
		got := appendEvent(nil, &ev)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendEvent(%+v)\n got %q\nwant %q", ev, got, want.Bytes())
		}
		if !printable(kind + function + strings.ReplaceAll(stack, "\x00", "") + id) {
			return
		}
		var back Event
		if canonical, err := DecodeEvent(got, &back); !canonical || err != nil || !reflect.DeepEqual(back, ev) {
			t.Fatalf("line %q decoded to %+v (canonical %v, %v), want %+v", got, back, canonical, err, ev)
		}
	})
}

// printable reports whether AppendString writes s verbatim.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if !verbatim(s[i]) {
			return false
		}
	}
	return true
}

// FuzzArmLine: every line of an arm stream, decoded the way serveLoop
// decodes it — into one reused PlanWire, through one PlanDecoder — is
// what json.Unmarshal makes of it in a zero PlanWire, error or not.
func FuzzArmLine(f *testing.F) {
	f.Add([]byte(`{"testID":1,"seq":1,"faults":[{"function":"read","callNumber":1,"errno":"EIO","retval":-1},{"function":"open","callNumber":2,"retval":0}]}` + "\n" +
		`{"testID":2,"seq":2,"faults":[]}` + "\n" + `{"testID":3,"faults":[{"function":"read","callNumber":1,"retval":-9223372036854775808}]}`))
	f.Add([]byte(`{"testID":0,"seq":7,"faults":null}` + "\n" + `{"testID":1, "faults":[]}` + "\n" + `{"TestID":4,"faults":[]}` + "\n" +
		`{"faults":[],"testID":5}` + "\n" + `{"testID":-0,"seq":0,"faults":[{"function":"r\u0065ad","callNumber":01,"retval":1}]}` + "\n" +
		`{"testID":9223372036854775808,"faults":[]}` + "\n" + `{"testID":1.5,"faults":[]}` + "\n" + `{"testID":1,"faults":[{"function":"é","callNumber":1,"retval":1}]}`))
	f.Fuzz(func(t *testing.T, arms []byte) {
		var (
			dec PlanDecoder
			p   PlanWire
		)
		for _, line := range bytes.Split(arms, []byte("\n")) {
			var want PlanWire
			wantErr := json.Unmarshal(line, &want)
			if _, err := dec.Decode(line, &p); (err == nil) != (wantErr == nil) || !reflect.DeepEqual(p, want) {
				t.Fatalf("line %q decoded to %+v (%v), want %+v (%v)", line, p, err, want, wantErr)
			}
		}
	})
}

// FuzzArmStream: whatever bytes arrive on the arm pipe, serveLoop does
// not panic, answers every line with exactly one done — carrying the
// line's seq when it parses — in arrival order, and returns at EOF.
func FuzzArmStream(f *testing.F) {
	f.Add([]byte(`{"testID":1,"seq":1,"faults":[{"function":"read","callNumber":1,"errno":"EIO","retval":-1}]}` + "\n" +
		`{"testID":2,"seq":2,"faults":[]}` + "\n"))
	f.Add([]byte("{not json\n\n  \r\n" + `{"testID":0,"seq":7,"faults":null}`))
	f.Add([]byte(`{"testID":3,"seq":"x"}` + "\n" + `[1,2]` + "\n" + `{"seq":9,"faults":[{"function":"read","callNumber":-4}]}` + "\n"))
	f.Fuzz(func(t *testing.T, arms []byte) {
		if len(arms) > 1<<16 {
			t.Skip("an arm line past the scanner's cap ends the loop, by design")
		}
		t.Setenv(PlanEnv, "")
		t.Setenv(ReportFDEnv, "")
		reset()
		defer reset()
		once.Do(arm)
		var report bytes.Buffer
		st.report = &report

		ran := 0
		serveLoop(bytes.NewReader(arms), func(int) int {
			ran++
			Cover(1)
			if _, _, failed := Call("read"); failed {
				return 1
			}
			return 0
		})

		var dones []Event
		sc := bufio.NewScanner(&report)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("report line %q is not an event: %v", sc.Text(), err)
			}
			if ev.Kind == EventDone {
				dones = append(dones, ev)
			}
		}
		lines, parsed := 0, 0
		in := bufio.NewScanner(bytes.NewReader(arms))
		for in.Scan() {
			line := bytes.TrimSpace(in.Bytes())
			if len(line) == 0 {
				continue
			}
			lines++
			var p PlanWire
			if json.Unmarshal(line, &p) != nil {
				continue
			}
			parsed++
			if lines > len(dones) || dones[lines-1].Seq != p.Seq {
				t.Fatalf("arm line %d (seq %d) answered by %+v", lines, p.Seq, dones)
			}
		}
		if len(dones) != lines || ran != parsed {
			t.Fatalf("%d arm lines (%d parse) got %d dones and %d runs", lines, parsed, len(dones), ran)
		}
	})
}

// TestCanonicalArmLineAllocatesNothing: once its names are interned and
// its faults slice grown, a decoder reads a canonical arm line with no
// allocation.
func TestCanonicalArmLineAllocatesNothing(t *testing.T) {
	line := []byte(`{"testID":1,"seq":7,"faults":[{"function":"read","callNumber":1,"errno":"EIO","retval":-1},{"function":"malloc","callNumber":2,"retval":0}]}`)
	var (
		dec PlanDecoder
		p   PlanWire
	)
	n := testing.AllocsPerRun(100, func() {
		if canonical, err := dec.Decode(line, &p); !canonical || err != nil || len(p.Faults) != 2 || p.Faults[0].Errno != "EIO" {
			t.Fatalf("decoded %+v (canonical %v, %v)", p, canonical, err)
		}
	})
	if n != 0 {
		t.Errorf("a canonical arm line costs %v allocations, want 0", n)
	}
}
