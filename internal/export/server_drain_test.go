package export

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShutdownDisconnectsSSEClients: draining the report server actively
// ends every /events stream with a terminal shutdown event — the drain
// never waits on a client-side timeout.
func TestShutdownDisconnectsSSEClients(t *testing.T) {
	srv := NewServer()
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Stream the body until EOF; the server closing the stream (not the
	// client timing out) must end it.
	type streamEnd struct {
		body string
		err  error
	}
	ended := make(chan streamEnd, 1)
	go func() {
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		ended <- streamEnd{sb.String(), sc.Err()}
	}()

	// Give the handler a moment to subscribe, then drain.
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown took %v with an open SSE client; drain should not wait on clients", took)
	}

	select {
	case end := <-ended:
		if end.err != nil {
			t.Fatalf("stream error: %v", end.err)
		}
		if !strings.Contains(end.body, "event: shutdown") {
			t.Errorf("stream ended without the terminal shutdown event; got %q", end.body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("SSE stream still open 3s after Shutdown: clients were not disconnected")
	}
}

// TestShutdownEventReplaysToLateSubscribers: a client that connects after
// the drain still receives the latest frames followed by the terminal
// shutdown event, and gets an immediately-ending stream.
func TestShutdownEventReplaysToLateSubscribers(t *testing.T) {
	srv := NewServer()
	srv.broker.publish("job-0", frame{event: "job", data: []byte("{}")})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := "event: job\ndata: {}\n\nevent: shutdown\ndata: {\"reason\":\"drain\"}\n\n"
	if string(body) != want {
		t.Fatalf("post-close stream = %q, want the job event then the shutdown event", body)
	}
}
