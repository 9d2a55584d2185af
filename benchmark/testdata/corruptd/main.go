// Command corruptd is treeschedd with a fault: it serves the daemon's
// HTTP API but changes one byte of the first completion line it
// streams. The benchmark's tests run it to check that a corrupted
// completion stream fails the run. It takes the flags the benchmark
// passes to treeschedd.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"treesched/internal/scenario"
	"treesched/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	scenarioPath := flag.String("scenario", "", "serve scenario file")
	queue := flag.Int("queue", 0, "admission queue depth")
	flag.Parse()
	if err := run(*listen, *scenarioPath, *queue); err != nil {
		fmt.Fprintf(os.Stderr, "corruptd: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, scenarioPath string, queue int) error {
	data, err := os.ReadFile(scenarioPath)
	if err != nil {
		return err
	}
	sc, err := scenario.Load(data)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Scenario: sc, QueueDepth: queue})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		srv.Drain()
		return err
	}
	fmt.Printf("treeschedd: serving on http://%s\n", ln.Addr())
	h := srv.Handler()
	var corrupted atomic.Bool
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/completions" && corrupted.CompareAndSwap(false, true) {
			w = &corruptWriter{ResponseWriter: w}
		}
		h.ServeHTTP(w, r)
	})}
	go hs.Serve(ln)
	<-srv.Done()
	if err := srv.Drain(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}

// corruptWriter flips the leaf of the first completion line written
// through it.
type corruptWriter struct {
	http.ResponseWriter
	done bool
}

func (w *corruptWriter) Write(b []byte) (int, error) {
	key := []byte(`"Leaf":`)
	if i := bytes.Index(b, key); !w.done && i >= 0 {
		w.done = true
		c := append([]byte(nil), b...)
		if k := i + len(key); c[k] == '1' {
			c[k] = '2'
		} else {
			c[k] = '1'
		}
		return w.ResponseWriter.Write(c)
	}
	return w.ResponseWriter.Write(b)
}

func (w *corruptWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }
