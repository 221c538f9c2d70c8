package main

// The control-plane client subcommands: `afex submit` posts a session
// spec to a `serve --http` server and prints the session ID; `afex
// status` renders the server's session statuses — the same wire schema
// (controlplane.Status) in list, detail, and --json forms.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"afex/internal/controlplane"
)

// defaultControlAddr is where the client subcommands look for the
// control plane unless --http says otherwise.
const defaultControlAddr = "127.0.0.1:8040"

func cmdSubmit(args []string, w io.Writer) error {
	fs, spec := specFlags("submit")
	httpAddr := fs.String("http", defaultControlAddr, "control-plane server address")
	wait := fs.Bool("wait", false, "block until the session finishes and print its final progress line")
	if err := parseSpec(fs, args, spec); err != nil {
		return err
	}

	cl := controlplane.NewClient(*httpAddr)
	st, err := cl.Submit(*spec)
	if err != nil {
		return err
	}
	// The bare ID is the machine-readable output (ID=$(afex submit …));
	// everything descriptive goes to stderr.
	fmt.Fprintln(w, st.ID)
	if st.Addr != "" {
		fmt.Fprintf(os.Stderr, "submitted %s session %s (%s); managers connect to %s\n", st.Mode, st.ID, st.Target, st.Addr)
	} else {
		fmt.Fprintf(os.Stderr, "submitted %s session %s (%s)\n", st.Mode, st.ID, st.Target)
	}
	if !*wait {
		return nil
	}
	final, err := cl.Wait(st.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", final.State, final.Progress)
	if final.State == controlplane.StateFailed {
		return fmt.Errorf("session %s failed: %s", final.ID, final.Error)
	}
	if final.Snapshot.Failed > 0 {
		return fmt.Errorf("%d failures in %d clusters: %w",
			final.Snapshot.Failed, final.Snapshot.UniqueFailures, errFailuresFound)
	}
	return nil
}

// writeStatus renders one session's status in the stable key-value
// form `afex status <id>` prints (time-free, so golden-testable).
func writeStatus(w io.Writer, st controlplane.Status) {
	fmt.Fprintf(w, "session    %s\n", st.ID)
	fmt.Fprintf(w, "state      %s\n", st.State)
	fmt.Fprintf(w, "mode       %s\n", st.Mode)
	fmt.Fprintf(w, "target     %s\n", st.Target)
	if st.Backend != "" {
		fmt.Fprintf(w, "backend    %s\n", st.Backend)
	}
	fmt.Fprintf(w, "algorithm  %s\n", st.Algorithm)
	if st.Addr != "" {
		fmt.Fprintf(w, "addr       %s\n", st.Addr)
	}
	if st.Budget > 0 {
		fmt.Fprintf(w, "budget     %d\n", st.Budget)
	}
	if st.Peers > 1 {
		fmt.Fprintf(w, "peer       %d of %d\n", st.Peer, st.Peers)
	}
	if st.StateDir != "" {
		fmt.Fprintf(w, "state-dir  %s\n", st.StateDir)
	}
	fmt.Fprintf(w, "progress   %s\n", st.Progress)
	fmt.Fprintf(w, "blocks     %d sets, %d walks\n", st.Snapshot.BlockSets, st.Snapshot.BlockWalks)
	if st.Snapshot.Resume != nil {
		fmt.Fprintf(w, "resumed    %s\n", st.Snapshot.Resume)
	}
	for id, n := range st.PerManager {
		fmt.Fprintf(w, "manager    %s executed %d\n", id, n)
	}
	if st.Store != nil {
		fmt.Fprintf(w, "journal    %s, %d entries, %d runs\n", st.Store.Format, st.Store.Entries, st.Store.Runs)
	}
	if st.Error != "" {
		fmt.Fprintf(w, "error      %s\n", st.Error)
	}
}

func cmdStatus(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	httpAddr := fs.String("http", defaultControlAddr, "control-plane server address")
	asJSON := fs.Bool("json", false, "emit the wire-format status JSON unmodified")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cl := controlplane.NewClient(*httpAddr)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if fs.NArg() == 0 {
		list, err := cl.List()
		if err != nil {
			return err
		}
		if *asJSON {
			return enc.Encode(list)
		}
		if len(list) == 0 {
			fmt.Fprintln(w, "no sessions")
			return nil
		}
		for _, st := range list {
			fmt.Fprintf(w, "%-4s %-8s %-11s %-10s %s\n", st.ID, st.State, st.Mode, st.Target, st.Progress)
		}
		return nil
	}
	st, err := cl.Status(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		return enc.Encode(st)
	}
	writeStatus(w, st)
	return nil
}
