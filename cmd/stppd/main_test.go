package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeadersDisconnected: a client that never finishes its request
// headers is cut off once the header timeout runs out, while a normal
// client is served alongside it.
func TestSlowHeadersDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), 100*time.Millisecond, time.Second)
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	// The request line and one header, but never the blank line that ends
	// the header block.
	start := time.Now()
	if _, err := fmt.Fprintf(slow, "GET / HTTP/1.1\r\nHost: stppd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("normal client: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("normal client got %d %q (%v)", resp.StatusCode, body, err)
	}

	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := slow.Read(make([]byte, 64))
	var ne net.Error
	switch {
	case err == nil:
		t.Fatalf("slow client got %d response bytes, want a closed connection", n)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("slow client still connected after 5 s")
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Errorf("slow client cut off after %v, before the 100 ms header timeout", waited)
	}
}
