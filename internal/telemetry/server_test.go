package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T, reg *Registry, bus *Bus) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", ServerOptions{Registry: reg, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerMetrics: /metrics serves the Prometheus text format —
// sanitized names, TYPE lines, cumulative le-buckets summing to _count.
func TestServerMetrics(t *testing.T) {
	reg := &Registry{}
	reg.Counter("campaign.runs", "status", "done").Add(4)
	reg.Gauge("pool.depth").Add(2)
	h := reg.Histogram("dispatch.ns")
	for _, v := range []int64{100, 1000, 10_000, 10_000} {
		h.Observe(v)
	}
	srv := startServer(t, reg, nil)

	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE campaign_runs counter",
		`campaign_runs{status="done"} 4`,
		"# TYPE pool_depth gauge",
		"pool_depth 2",
		"# TYPE dispatch_ns histogram",
		`dispatch_ns_bucket{le="+Inf"} 4`,
		"dispatch_ns_sum 21100",
		"dispatch_ns_count 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// le-buckets are cumulative: the counts along the series never
	// decrease.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "dispatch_ns_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if n < prev {
			t.Fatalf("bucket series not cumulative at %q", line)
		}
		prev = n
	}
	if n := srv.scrapes.Value(); n != 1 {
		t.Errorf("scrapes = %d, want 1", n)
	}
}

// TestServerVars: /debug/vars returns the JSON snapshot keyed by
// canonical metric names.
func TestServerVars(t *testing.T) {
	reg := &Registry{}
	reg.Counter("runs").Add(7)
	reg.Histogram("lat").Observe(500)
	srv := startServer(t, reg, nil)

	code, body := get(t, "http://"+srv.Addr()+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var doc struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if v, _ := doc.Metrics["runs"].(float64); v != 7 {
		t.Errorf("runs = %v, want 7", doc.Metrics["runs"])
	}
	hist, _ := doc.Metrics["lat"].(map[string]any)
	if hist == nil || hist["count"].(float64) != 1 {
		t.Errorf("lat histogram = %v", doc.Metrics["lat"])
	}
}

// TestServerHealth: /healthz answers 200 with status ok.
func TestServerHealth(t *testing.T) {
	srv := startServer(t, &Registry{}, nil)
	if code, body := get(t, "http://"+srv.Addr()+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	id    int64
	event string
	data  Event
}

// readFrame parses the next id/event/data frame off the stream.
func readFrame(t *testing.T, r *bufio.Reader) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended mid-frame: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && f.event != "":
			return f
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &f.id)
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
}

// TestServerSSE: /events streams bus events in order as id/event/data
// frames; ?replay hands a late joiner the recent history first, and
// events published after the connection continue the same sequence.
func TestServerSSE(t *testing.T) {
	bus := &Bus{}
	srv := startServer(t, &Registry{}, bus)

	for i := 0; i < 3; i++ {
		bus.Publish(Event{Type: "run", Run: fmt.Sprintf("spec-%d", i), Status: "done"})
	}
	resp, err := http.Get("http://" + srv.Addr() + "/events?replay=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	for want := int64(1); want <= 3; want++ {
		f := readFrame(t, r)
		if f.id != want || f.data.Seq != want || f.event != "run" {
			t.Fatalf("replay frame = %+v, want seq %d", f, want)
		}
	}
	// Having read a replayed frame proves the subscription is attached;
	// live publishes now continue the stream.
	bus.Publish(Event{Type: "heartbeat", Finished: 3, Total: 5, InFlight: 1})
	f := readFrame(t, r)
	if f.id != 4 || f.event != "heartbeat" || f.data.Finished != 3 || f.data.InFlight != 1 {
		t.Fatalf("live frame = %+v", f)
	}
	bus.Publish(Event{Type: "campaign", Status: "finished"})
	if f := readFrame(t, r); f.id != 5 || f.event != "campaign" || f.data.Status != "finished" {
		t.Fatalf("final frame = %+v", f)
	}
}

// TestServerSSEWithoutBus: /events 404s when no bus is wired.
func TestServerSSEWithoutBus(t *testing.T) {
	srv := startServer(t, &Registry{}, nil)
	if code, _ := get(t, "http://"+srv.Addr()+"/events"); code != http.StatusNotFound {
		t.Fatalf("/events without bus: %d, want 404", code)
	}
}
