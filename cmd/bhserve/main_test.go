package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the listener's timeouts: header reads
// and idle keep-alives are bounded, while whole-request and
// whole-response deadlines stay off so restore uploads and NDJSON
// streams are not cut.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("addr/handler not wired: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Fatalf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout = %v, WriteTimeout = %v, want 0 (uploads and streams are long)",
			srv.ReadTimeout, srv.WriteTimeout)
	}
}
