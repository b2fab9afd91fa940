package obs

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				reg.Counter("test_total", "A test counter.").Inc()
				reg.Gauge("test_gauge", "A test gauge.").Add(1)
				reg.Histogram("test_hist", "A test histogram.", []float64{1, 2}).Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total", "").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := reg.Gauge("test_gauge", "").Value(); got != workers*each {
		t.Errorf("gauge = %v, want %d", got, workers*each)
	}
	if got := reg.Histogram("test_hist", "", nil).Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestCounterIgnoresNonPositive(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mono_total", "")
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5 (negative/zero deltas must be ignored)", got)
	}
}

func TestNilRegistryInert(t *testing.T) {
	var reg *Registry
	// Every chained call must be a no-op, never a panic.
	reg.Counter("x", "").Inc()
	reg.Gauge("x", "").Set(1)
	reg.Histogram("x", "", DurationBuckets()).Observe(1)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edges", "", []float64{1, 2, 5})
	// Prometheus le semantics: a value exactly on a bound counts into that
	// bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 7.0} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 1} // (-inf,1], (1,2], (2,5], (5,+inf)
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+5+7 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("phasefold_test_total", "Things counted.", Label{K: "kind", V: "a"}).Add(3)
	reg.Counter("phasefold_test_total", "Things counted.", Label{K: "kind", V: "b"}).Add(1)
	reg.Gauge("phasefold_test_gauge", "Current level.").Set(2.5)
	h := reg.Histogram("phasefold_test_seconds", "Durations.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP phasefold_test_gauge Current level.
# TYPE phasefold_test_gauge gauge
phasefold_test_gauge 2.5
# HELP phasefold_test_seconds Durations.
# TYPE phasefold_test_seconds histogram
phasefold_test_seconds_bucket{le="0.1"} 1
phasefold_test_seconds_bucket{le="1"} 2
phasefold_test_seconds_bucket{le="+Inf"} 3
phasefold_test_seconds_sum 5.55
phasefold_test_seconds_count 3
# HELP phasefold_test_total Things counted.
# TYPE phasefold_test_total counter
phasefold_test_total{kind="a"} 3
phasefold_test_total{kind="b"} 1
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "help", Label{K: "k", V: "v"}).Add(7)
	reg.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	b, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	var series []map[string]any
	if err := json.Unmarshal(b, &series); err != nil {
		t.Fatalf("JSON export does not parse: %v\n%s", err, b)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	// Deterministic order: c_total before h_seconds.
	if series[0]["name"] != "c_total" || series[0]["value"].(float64) != 7 {
		t.Errorf("series[0] = %v", series[0])
	}
	if series[1]["name"] != "h_seconds" || series[1]["count"].(float64) != 1 {
		t.Errorf("series[1] = %v", series[1])
	}
}

func TestKindCollisionDetaches(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("same_name", "").Add(2)
	// Asking for the same series as a gauge must not corrupt the registry.
	reg.Gauge("same_name", "").Set(9)
	if got := reg.Counter("same_name", "").Value(); got != 2 {
		t.Errorf("counter after collision = %d, want 2", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "same_name 2") {
		t.Errorf("exposition lost the original series:\n%s", b.String())
	}
}

// TestExportOrderMatchesSignatureSort registers series in a scrambled
// order, each label set in a scrambled key order, and checks that both
// exporters list them exactly as a fresh sort by (name, signature) does.
func TestExportOrderMatchesSignatureSort(t *testing.T) {
	type reg struct {
		name   string
		labels Labels
	}
	var all []reg
	for _, name := range []string{"m_b", "m_a", "m_c"} {
		for _, ls := range []Labels{
			nil,
			{{K: "phase", V: "1"}, {K: "cluster", V: "10"}},
			{{K: "cluster", V: "2"}, {K: "phase", V: "1"}},
			{{K: "metric", V: "ipc"}, {K: "phase", V: "0"}, {K: "cluster", V: "2"}},
			{{K: "cluster", V: "2"}, {K: "metric", V: "IPC"}, {K: "phase", V: "0"}},
			{{K: "z", V: ""}},
			{{K: "a", V: "z"}},
			{{K: "a_b", V: "1"}, {K: "a", V: "b"}},
			{{K: "a", V: "1"}},
			{{K: "b", V: "2"}, {K: "a", V: "1"}},
		} {
			all = append(all, reg{name, ls})
		}
	}
	rng := rand.New(rand.NewPCG(7, 11))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	r := NewRegistry()
	for i, s := range all {
		scrambled := append(Labels(nil), s.labels...)
		rng.Shuffle(len(scrambled), func(i, j int) { scrambled[i], scrambled[j] = scrambled[j], scrambled[i] })
		r.Gauge(s.name, "", scrambled...).Set(float64(i)) // the value identifies the series
	}
	want := make([]int, len(all))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool {
		a, b := all[want[i]], all[want[j]]
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels.signature() < b.labels.signature()
	})

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var fromProm []int
	for _, line := range strings.Split(strings.TrimSpace(prom.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		fromProm = append(fromProm, v)
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var series []struct{ Value float64 }
	if err := json.Unmarshal(js.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	var fromJSON []int
	for _, s := range series {
		fromJSON = append(fromJSON, int(s.Value))
	}
	if !slices.Equal(fromProm, want) {
		t.Errorf("WritePrometheus order %v, want %v", fromProm, want)
	}
	if !slices.Equal(fromJSON, want) {
		t.Errorf("WriteJSON order %v, want %v", fromJSON, want)
	}
}
