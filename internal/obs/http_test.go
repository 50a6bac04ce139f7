package obs

import (
	"net/http"
	"testing"
)

// TestHTTPServersHaveTimeouts checks that the daemons' HTTP servers bound
// how long a client may take to send a request or sit idle, and leave
// writes unbounded for streaming profiles.
func TestHTTPServersHaveTimeouts(t *testing.T) {
	srv, _, err := Serve("127.0.0.1:0", NewRegistry(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, s := range map[string]*http.Server{
		"NewHTTPServer": NewHTTPServer(http.NotFoundHandler()),
		"Serve":         srv,
	} {
		if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
			t.Errorf("%s: read header %v, read %v, idle %v: every timeout must be set",
				name, s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
		}
		if s.WriteTimeout != 0 {
			t.Errorf("%s: write timeout %v would cut /debug/pprof/profile short", name, s.WriteTimeout)
		}
	}
}
