package export

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func textFrame(event, data string) frame { return frame{event: event, data: []byte(data)} }

// frameStrings renders frames as "event=data" for comparison.
func frameStrings(fs []frame) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.event + "=" + string(f.data)
	}
	return out
}

func TestBrokerKeepsLatestFramePerKey(t *testing.T) {
	b := newBroker()
	for i := 0; i < 10000; i++ {
		b.publish("k", textFrame("e", fmt.Sprint(i)))
	}
	if len(b.keys) != 1 || len(b.latest) != 1 {
		t.Fatalf("broker holds %d keys and %d frames after 10000 publishes to one key, want 1 and 1",
			len(b.keys), len(b.latest))
	}
	frames, closed := b.take(b.subscribe())
	if got := frameStrings(frames); closed || len(got) != 1 || got[0] != "e=9999" {
		t.Fatalf("replay = %v (closed %v), want only the latest frame", got, closed)
	}
}

func TestBrokerLateSubscriberReplaysInFirstPublishOrder(t *testing.T) {
	b := newBroker()
	b.publish("a", textFrame("job-start", "a1"))
	b.publish("b", textFrame("job-start", "b1"))
	b.publish("c", textFrame("phases", "c1"))
	b.publish("a", textFrame("job", "a2"))
	b.publish("b", textFrame("job", "b2"))

	sub := b.subscribe()
	frames, _ := b.take(sub)
	want := []string{"job=a2", "job=b2", "phases=c1"}
	if got := frameStrings(frames); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	// Then the live stream: each publish wakes the subscriber and is
	// delivered, a new key included.
	b.publish("d", textFrame("job-start", "d1"))
	select {
	case <-sub.wake:
	case <-time.After(5 * time.Second):
		t.Fatal("publish did not wake the subscriber")
	}
	frames, _ = b.take(sub)
	if got := frameStrings(frames); len(got) != 1 || got[0] != "job-start=d1" {
		t.Fatalf("live frames = %v, want [job-start=d1]", got)
	}
	if frames, _ = b.take(sub); len(frames) != 0 {
		t.Fatalf("frames delivered twice: %v", frameStrings(frames))
	}
}

func TestBrokerSlowSubscriberCoalesces(t *testing.T) {
	b := newBroker()
	sub := b.subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			b.publish(fmt.Sprint("k", i%3), textFrame("e", fmt.Sprint(i)))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a subscriber that never reads")
	}
	frames, _ := b.take(sub)
	want := []string{"e=9999", "e=9997", "e=9998"}
	if got := frameStrings(frames); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("slow subscriber received %v, want the latest frame of each key %v", got, want)
	}
}

// readFrames reads SSE frames as "event=data" until the stream ends.
func readFrames(t *testing.T, resp *http.Response) []string {
	t.Helper()
	defer resp.Body.Close()
	var out []string
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			out = append(out, event+"="+strings.TrimPrefix(line, "data: "))
		}
	}
	return out
}

func TestBrokerStreamsEndOnShutdownFrame(t *testing.T) {
	b := newBroker()
	ts := httptest.NewServer(b)
	defer ts.Close()
	b.publish("a", textFrame("job", "1"))

	early, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	earlyFrames := make(chan []string, 1)
	go func() { earlyFrames <- readFrames(t, early) }()
	// Wait until the early stream is subscribed before publishing live.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		n := len(b.subs)
		b.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the early stream never subscribed")
		}
	}
	b.publish("b", textFrame("phases", "2"))
	b.close()
	b.publish("c", textFrame("job", "dropped"))

	late, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := "shutdown=" + string(shutdownFrame.data)
	lateGot := readFrames(t, late)
	if want := []string{"job=1", "phases=2", shutdown}; strings.Join(lateGot, " ") != strings.Join(want, " ") {
		t.Errorf("late stream = %v, want %v", lateGot, want)
	}
	select {
	case got := <-earlyFrames:
		if len(got) == 0 || got[0] != "job=1" || got[len(got)-1] != shutdown {
			t.Errorf("early stream = %v, want the replay first and the shutdown frame last", got)
		}
		for _, f := range got {
			if strings.Contains(f, "dropped") {
				t.Errorf("a publish after close reached the early stream: %v", got)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not end the early stream")
	}
}
