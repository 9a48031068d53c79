package main

import (
	"net/http"
	"testing"
)

func TestNewHTTPServerSetsConnectionTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Addr != "127.0.0.1:0" || hs.Handler != http.Handler(h) {
		t.Errorf("server bound to %q/%v, want the given address and handler", hs.Addr, hs.Handler)
	}
}
