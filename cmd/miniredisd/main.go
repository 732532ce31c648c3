// Command miniredisd runs the embedded Redis-compatible server standalone,
// for poking at it with any RESP client or for hosting the Redis mappings
// out-of-process. It serves the command set listed in the internal/miniredis
// package documentation (the protocol the workflow engine speaks); any other
// command is answered with "ERR unknown command".
//
// Usage:
//
//	miniredisd -addr 127.0.0.1:6379
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/miniredis"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "listen address")
		opDelay = flag.Duration("op-delay", 0, "artificial per-command service delay")
	)
	flag.Parse()

	srv := miniredis.NewServer(miniredis.Options{
		Addr:    *addr,
		OpDelay: *opDelay,
		Logf:    log.Printf,
	})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("miniredisd listening on %s\n", srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		log.Print(err)
	}
	time.Sleep(50 * time.Millisecond)
}
