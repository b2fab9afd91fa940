package export

import (
	"fmt"
	"net/http"
	"sync"
)

// frame is one SSE message: its event name and its data line.
type frame struct {
	event string
	data  []byte
}

// shutdownFrame is the terminal frame every stream ends on once its broker
// closes, so pages learn the stream ended deliberately (and can stop
// reconnecting) instead of waiting out a read timeout.
var shutdownFrame = frame{event: "shutdown", data: []byte(`{"reason":"drain"}`)}

// broker fans SSE frames out to subscribers. Every frame is published
// under a key, and the broker keeps only the latest frame of each key: a
// new subscriber first receives those, in the order their keys were first
// published, then the live stream. Delivery coalesces per subscriber — a
// subscriber that falls behind receives the latest frame of each key it
// missed, never a backlog — so neither the broker nor any subscriber holds
// more than one frame per key, and Publish never waits on a reader. Once
// closed, the broker drops further publishes and every stream, live or
// late, ends on the shutdown frame.
type broker struct {
	mu     sync.Mutex
	keys   []string         // first-publish order
	latest map[string]frame // key → its latest frame
	subs   map[*subscriber]struct{}
	closed bool
}

// subscriber is one stream's delivery state: the keys whose latest frame
// it has not been sent yet, in the order they became pending.
type subscriber struct {
	wake    chan struct{} // signaled when pending grows or the broker closes
	pending []string
	queued  map[string]bool
}

func newBroker() *broker {
	return &broker{latest: make(map[string]frame), subs: make(map[*subscriber]struct{})}
}

// publish installs f as key's latest frame and marks key pending for every
// subscriber.
func (b *broker) publish(key string, f frame) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if _, ok := b.latest[key]; !ok {
		b.keys = append(b.keys, key)
	}
	b.latest[key] = f
	for sub := range b.subs {
		sub.mark(key)
	}
}

// frameOf returns key's latest frame.
func (b *broker) frameOf(key string) (frame, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, ok := b.latest[key]
	return f, ok
}

// close ends every stream; further publishes are dropped.
func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for sub := range b.subs {
		sub.signal()
	}
}

// subscribe registers a subscriber with the latest frame of every key
// pending, in first-publish order.
func (b *broker) subscribe() *subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub := &subscriber{wake: make(chan struct{}, 1), queued: make(map[string]bool, len(b.keys))}
	for _, k := range b.keys {
		sub.mark(k)
	}
	b.subs[sub] = struct{}{}
	return sub
}

func (b *broker) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, sub)
}

// take hands over sub's pending frames, the latest of each key, and
// reports whether the broker has closed: a closed broker's frames are
// final, so after them the stream ends.
func (b *broker) take(sub *subscriber) (frames []frame, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	frames = make([]frame, len(sub.pending))
	for i, k := range sub.pending {
		frames[i] = b.latest[k]
		delete(sub.queued, k)
	}
	sub.pending = sub.pending[:0]
	return frames, b.closed
}

// mark makes key pending and wakes the stream; the broker's lock is held.
func (sub *subscriber) mark(key string) {
	if !sub.queued[key] {
		sub.queued[key] = true
		sub.pending = append(sub.pending, key)
	}
	sub.signal()
}

func (sub *subscriber) signal() {
	select {
	case sub.wake <- struct{}{}:
	default:
	}
}

// ServeHTTP is the SSE endpoint: it streams the broker to one client until
// the client disconnects or the broker closes.
func (b *broker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	sub := b.subscribe()
	defer b.unsubscribe(sub)
	for {
		frames, closed := b.take(sub)
		if closed {
			frames = append(frames, shutdownFrame)
		}
		for _, f := range frames {
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, f.data)
		}
		fl.Flush()
		if closed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.wake:
		}
	}
}
