// Command fused runs one live FUSE node and exposes a line-oriented
// control interface on stdin, so a multi-machine (or multi-terminal)
// deployment can be driven by hand:
//
//	fused -name a.example.org -bind 127.0.0.1:7001
//	fused -name b.example.org -bind 127.0.0.1:7002 \
//	      -join a.example.org@127.0.0.1:7001
//
// Commands on stdin:
//
//	peers                          print overlay neighbors
//	groups                         print live group IDs
//	create <name@addr> ...         create a group over self + peers
//	signal <group-id>              explicitly fail a group
//	watch  <group-id>              register a failure handler
//	quit
//
// Group IDs print as rootname@rootaddr/num and are accepted in the same
// form.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fuse"
)

func main() {
	var (
		name        = flag.String("name", "", "unique overlay node name (required)")
		bind        = flag.String("bind", "127.0.0.1:0", "TCP listen address")
		join        = flag.String("join", "", "bootstrap peer as name@addr")
		scale       = flag.Float64("timescale", 1.0, "protocol timeout multiplier (1.0 = paper's 60s pings)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fused: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "fused: -name is required")
		os.Exit(2)
	}

	cfg := fuse.NodeConfig{Name: *name, Bind: *bind, TimeScale: *scale}
	if *join != "" {
		peer, err := parsePeer(*join)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fused: -join: %v\n", err)
			os.Exit(2)
		}
		cfg.Bootstrap = peer
	}
	node, err := fuse.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fused: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fused: %s listening at %s\n", node.Ref().Name, node.Ref().Addr)

	if *metricsAddr != "" {
		reg := node.Telemetry()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fused: -metrics-addr: %v\n", err)
			node.Close()
			os.Exit(1)
		}
		fmt.Printf("fused: metrics at http://%s/metrics (pprof under /debug/pprof/)\n", ln.Addr())
		go func() { _ = http.Serve(ln, reg.ServeMux()) }()
	}

	// Clean shutdown on SIGINT/SIGTERM (container harness runs stop
	// nodes with signals, not stdin): close the transport so peers see
	// a clean connection teardown, and flush a final metrics snapshot
	// to stderr. stdin EOF and `quit` leave through the same path.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	shutdown := func() {
		node.Close()
		fmt.Fprintf(os.Stderr, "fused: final metrics snapshot\n%s", node.Telemetry().RenderTable())
	}

	for {
		fmt.Print("> ")
		var line string
		var ok bool
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "\nfused: %v, shutting down\n", sig)
			shutdown()
			return
		case line, ok = <-lines:
			if !ok {
				shutdown()
				return
			}
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			shutdown()
			return
		case "peers":
			for _, p := range node.Neighbors() {
				fmt.Printf("  %s@%s\n", p.Name, p.Addr)
			}
		case "groups":
			for _, id := range node.LiveGroups() {
				fmt.Printf("  %s\n", formatID(id))
			}
		case "create":
			members := []fuse.Peer{node.Ref()}
			bad := false
			for _, arg := range fields[1:] {
				p, err := parsePeer(arg)
				if err != nil {
					fmt.Printf("  bad peer %q: %v\n", arg, err)
					bad = true
					break
				}
				members = append(members, p)
			}
			if bad {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			id, err := node.CreateGroup(ctx, members)
			cancel()
			if err != nil {
				fmt.Printf("  create failed: %v\n", err)
				continue
			}
			fmt.Printf("  created %s\n", formatID(id))
		case "signal":
			id, err := parseID(fields[1:])
			if err != nil {
				fmt.Printf("  %v\n", err)
				continue
			}
			node.SignalFailure(id)
			fmt.Println("  signalled")
		case "watch":
			id, err := parseID(fields[1:])
			if err != nil {
				fmt.Printf("  %v\n", err)
				continue
			}
			node.RegisterFailureHandler(func(n fuse.Notice) {
				fmt.Printf("\n!! group %s FAILED (%s)\n> ", formatID(n.ID), n.Reason)
			}, id)
			fmt.Println("  watching")
		default:
			fmt.Println("  commands: peers | groups | create <name@addr>... | signal <id> | watch <id> | quit")
		}
	}
}

func parsePeer(s string) (fuse.Peer, error) {
	name, addr, ok := strings.Cut(s, "@")
	if !ok || name == "" || addr == "" {
		return fuse.Peer{}, fmt.Errorf("want name@host:port, got %q", s)
	}
	return fuse.PeerAt(name, addr), nil
}

func formatID(id fuse.GroupID) string {
	return fmt.Sprintf("%s@%s/%x", id.Root.Name, id.Root.Addr, id.Num)
}

func parseID(fields []string) (fuse.GroupID, error) {
	if len(fields) != 1 {
		return fuse.GroupID{}, fmt.Errorf("want one group id (rootname@addr/num)")
	}
	rootPart, numPart, ok := strings.Cut(fields[0], "/")
	if !ok {
		return fuse.GroupID{}, fmt.Errorf("missing /num in %q", fields[0])
	}
	peer, err := parsePeer(rootPart)
	if err != nil {
		return fuse.GroupID{}, err
	}
	num, err := strconv.ParseUint(numPart, 16, 64)
	if err != nil {
		return fuse.GroupID{}, fmt.Errorf("bad group number %q: %v", numPart, err)
	}
	return fuse.GroupID{Root: peer, Num: num}, nil
}
