package admit

import (
	"context"
	"expvar"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAdmitRefusals: with the only slot held, an arrival that finds the
// queue full gets 429 + Retry-After, one that waits out the timeout gets
// 503, and both count as shed.
func TestAdmitRefusals(t *testing.T) {
	admitted, shed := new(expvar.Int), new(expvar.Int)
	admit := func(g *Gate) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		if g.Admit(rr, httptest.NewRequest(http.MethodGet, "/", nil), nil) {
			g.Release()
		}
		return rr
	}

	full := New(1, 0, time.Second, "test", admitted, shed)
	if rr := admit(full); rr.Code != http.StatusOK || admitted.Value() != 1 {
		t.Fatalf("idle gate: status %d, admitted %d", rr.Code, admitted.Value())
	}
	if err := full.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	rr := admit(full)
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") != "1" {
		t.Fatalf("full queue: status %d Retry-After %q, want 429 and 1",
			rr.Code, rr.Header().Get("Retry-After"))
	}

	slow := New(1, 4, 10*time.Millisecond, "test", admitted, shed)
	if err := slow.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rr := admit(slow); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue timeout: status %d, want 503", rr.Code)
	}
	if admitted.Value() != 1 || shed.Value() != 2 {
		t.Fatalf("admitted %d shed %d, want 1 and 2", admitted.Value(), shed.Value())
	}
}
