package rgb

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/runtime"
)

// scrape GETs one admin path and returns status code and body.
func scrape(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// promSampleLine matches every legal non-comment exposition line.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|NaN|\+Inf)$`)

// TestAdminMetrics: /metrics on a live loopback cluster returns
// Prometheus-parsable text including membership size, the view-change
// latency histogram and the NetStats counters.
func TestAdminMetrics(t *testing.T) {
	ctx := context.Background()
	c, err := ListenCluster("127.0.0.1:0", WithHierarchy(2, 3), WithSeed(11))
	if err != nil {
		t.Fatalf("ListenCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	// Enable telemetry before any churn: instrumentation observes
	// rounds and commits from here on (rgbnode does the same at boot).
	c.Telemetry()
	svc, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for g := GUID(1); g <= 3; g++ {
		if _, err := svc.Join(ctx, g); err != nil {
			t.Fatalf("Join(%d): %v", g, err)
		}
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("Settle: %v", err)
	}

	ts := httptest.NewServer(NewAdminHandler(c))
	t.Cleanup(ts.Close)
	code, body := scrape(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d, body:\n%s", code, body)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		`rgb_group_members{group="224.0.0.1"} 3`,
		`rgb_view_change_latency_seconds_bucket{group="224.0.0.1",kind="join",le="+Inf"} 3`,
		`rgb_view_changes_total{group="224.0.0.1",kind="join"} 3`,
		"rgb_round_duration_seconds_count",
		"rgb_net_received_total",
		"rgb_net_gossip_frames_total",
		"rgb_transport_sent_total",
		"go_goroutines",
		"rgb_groups_open 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAdminJSON: the read-only JSON endpoints answer against a live
// loopback cluster, unknown groups 404, and writes are rejected.
func TestAdminJSON(t *testing.T) {
	ctx := context.Background()
	c, err := ListenCluster("127.0.0.1:0", WithHierarchy(2, 3), WithSeed(12))
	if err != nil {
		t.Fatalf("ListenCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	svc, err := c.Open(NewGroupID(1))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for g := GUID(1); g <= 4; g++ {
		if _, err := svc.Join(ctx, g); err != nil {
			t.Fatalf("Join(%d): %v", g, err)
		}
	}
	if err := svc.Leave(ctx, 4); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("Settle: %v", err)
	}

	ts := httptest.NewServer(NewAdminHandler(c))
	t.Cleanup(ts.Close)

	code, body := scrape(t, ts, "/v1/members?group=224.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("/v1/members status = %d, body: %s", code, body)
	}
	var members struct {
		Group   string `json:"group"`
		Members []struct {
			GUID   uint64 `json:"guid"`
			AP     string `json:"ap"`
			Status string `json:"status"`
		} `json:"members"`
	}
	if err := json.Unmarshal([]byte(body), &members); err != nil {
		t.Fatalf("members decode: %v (%s)", err, body)
	}
	if members.Group != "224.0.0.1" {
		t.Errorf("members group = %q", members.Group)
	}
	operational := 0
	for _, m := range members.Members {
		if m.Status == "operational" {
			operational++
		}
		if m.AP == "" {
			t.Errorf("member %d has empty AP", m.GUID)
		}
	}
	if operational != 3 {
		t.Errorf("operational members = %d, want 3 (%s)", operational, body)
	}

	if code, body := scrape(t, ts, "/v1/members?group=224.0.0.9"); code != http.StatusNotFound {
		t.Errorf("unknown group status = %d, body: %s", code, body)
	}

	code, body = scrape(t, ts, "/v1/peers")
	if code != http.StatusOK {
		t.Fatalf("/v1/peers status = %d", code)
	}
	var peers struct {
		Peers []struct {
			Slot  int    `json:"slot"`
			Addr  string `json:"addr"`
			State string `json:"state"`
		} `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &peers); err != nil {
		t.Fatalf("peers decode: %v (%s)", err, body)
	}

	code, body = scrape(t, ts, "/v1/shards")
	if code != http.StatusOK {
		t.Fatalf("/v1/shards status = %d", code)
	}
	var shards struct {
		Shards int `json:"shards"`
		Groups []struct {
			Group string `json:"group"`
			Shard int    `json:"shard"`
		} `json:"groups"`
	}
	if err := json.Unmarshal([]byte(body), &shards); err != nil {
		t.Fatalf("shards decode: %v (%s)", err, body)
	}
	if shards.Shards < 1 || len(shards.Groups) != 1 || shards.Groups[0].Group != "224.0.0.1" {
		t.Errorf("shards = %+v", shards)
	}

	resp, err := ts.Client().Post(ts.URL+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
}

// TestHealthzTransitions: bootstrapping with no open groups, ok once a
// group is open, degraded once a slotted peer goes silent past the
// suspicion window.
func TestHealthzTransitions(t *testing.T) {
	addrs := reservePorts(t, 2)
	knobs := runtime.NetConfig{
		ProbeInterval: 50 * time.Millisecond,
		SuspectAfter:  250 * time.Millisecond,
		EvictAfter:    5 * time.Second,
	}
	open := func(index int) *Cluster {
		c, err := ListenCluster(addrs[index],
			withNetConfig(knobs),
			WithCluster(index, addrs...),
			WithHierarchy(2, 3), WithSeed(13))
		if err != nil {
			t.Fatalf("ListenCluster[%d]: %v", index, err)
		}
		return c
	}

	a := open(0)
	t.Cleanup(func() { a.Close() })
	ts := httptest.NewServer(NewAdminHandler(a))
	t.Cleanup(ts.Close)

	code, body := scrape(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, HealthBootstrapping) {
		t.Fatalf("no-groups healthz = %d %s, want 503 bootstrapping", code, body)
	}

	b := open(1)
	defer b.Close()
	if _, err := a.Open(NewGroupID(1)); err != nil {
		t.Fatalf("a.Open: %v", err)
	}
	if _, err := b.Open(NewGroupID(1)); err != nil {
		t.Fatalf("b.Open: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = scrape(t, ts, "/healthz")
		if code == http.StatusOK && strings.Contains(body, HealthOK) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reached ok: %d %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the peer process; the probe sweep marks its slot suspect.
	b.Close()
	for {
		code, body = scrape(t, ts, "/healthz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, HealthDegraded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded after peer death: %d %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
