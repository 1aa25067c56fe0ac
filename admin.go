package rgb

import (
	"encoding/json"
	"net/http"
	"time"
)

// Health status values (Health.Status).
const (
	// HealthBootstrapping: no group is open yet — the process is still
	// building its hierarchy or waiting out a seed bootstrap.
	HealthBootstrapping = "bootstrapping"
	// HealthOK: groups are open and every slotted peer is up.
	HealthOK = "ok"
	// HealthDegraded: at least one slotted peer process is suspect or
	// evicted — rings spanning it are running repaired, and membership
	// answers may briefly lag the cut.
	HealthDegraded = "degraded"
)

// Health is a cluster's liveness summary, as served by /healthz.
type Health struct {
	Status        string `json:"status"` // HealthOK, HealthBootstrapping, HealthDegraded
	Groups        int    `json:"groups"`
	PeersUp       int    `json:"peers_up"`
	PeersSuspect  int    `json:"peers_suspect"`
	PeersEvicted  int    `json:"peers_evicted"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// OK reports whether the cluster is fully healthy (status HealthOK).
func (h Health) OK() bool { return h.Status == HealthOK }

// Health summarizes the cluster's current state: bootstrapping while
// no group is open, degraded while any slotted peer process is
// suspect or evicted (slotless observers, the clients, don't count:
// their rows are always up, and a silent one is dropped, which
// degrades nothing), ok otherwise. A non-networked cluster
// has no peers and is ok as soon as a group is open.
func (c *Cluster) Health() Health {
	c.mu.Lock()
	groups := len(c.groups)
	c.mu.Unlock()

	h := Health{Status: HealthOK, Groups: groups}
	if c.tel != nil {
		h.UptimeSeconds = int64(time.Since(c.tel.Start()).Seconds())
	}
	if peers, ok := c.Peers(); ok {
		for _, p := range peers {
			switch p.State {
			case PeerUp:
				h.PeersUp++
			case PeerSuspect:
				h.PeersSuspect++
			case PeerEvicted:
				h.PeersEvicted++
			}
			if p.State != PeerUp {
				h.Status = HealthDegraded
			}
		}
	}
	if groups == 0 {
		h.Status = HealthBootstrapping
	}
	return h
}

// NewAdminHandler builds the read-only HTTP operability surface of a
// cluster — what rgbnode serves on -http:
//
//	GET /metrics            Prometheus text exposition (Telemetry)
//	GET /healthz            Health as JSON; 200 when ok, 503 otherwise
//	GET /v1/members?group=  one group's authoritative membership
//	GET /v1/peers           the live peer table
//	GET /v1/shards          shard count and group placement
//
// The handler never mutates cluster state; membership commands stay
// on the rgb API (or rgbnode's stdin protocol). The group parameter
// is the dotted-quad GroupID ("224.0.0.1"); omitted, it defaults to
// the lowest open group.
func NewAdminHandler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if !adminGet(w, r) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.Telemetry().WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !adminGet(w, r) {
			return
		}
		h := c.Health()
		code := http.StatusOK
		if !h.OK() {
			code = http.StatusServiceUnavailable
		}
		adminJSON(w, code, h)
	})
	mux.HandleFunc("/v1/members", func(w http.ResponseWriter, r *http.Request) {
		if !adminGet(w, r) {
			return
		}
		svc, ok := adminGroup(c, r.URL.Query().Get("group"))
		if !ok {
			adminJSON(w, http.StatusNotFound, map[string]string{"error": "no such open group"})
			return
		}
		members, err := svc.Members(r.Context())
		if err != nil {
			adminJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
			return
		}
		type memberJSON struct {
			GUID   uint64 `json:"guid"`
			AP     string `json:"ap"`
			Status string `json:"status"`
		}
		out := struct {
			Group   string       `json:"group"`
			Members []memberJSON `json:"members"`
		}{Group: svc.Group().String(), Members: make([]memberJSON, 0, len(members))}
		for _, m := range members {
			out.Members = append(out.Members, memberJSON{
				GUID:   uint64(m.GUID),
				AP:     m.AP.String(),
				Status: m.Status.String(),
			})
		}
		adminJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/v1/peers", func(w http.ResponseWriter, r *http.Request) {
		if !adminGet(w, r) {
			return
		}
		type peerJSON struct {
			Slot       int    `json:"slot"`
			Addr       string `json:"addr"`
			State      string `json:"state"`
			LastSeenMS int64  `json:"last_seen_ms"`
			Frames     uint64 `json:"frames"`
		}
		peers, _ := c.Peers()
		now := time.Now()
		out := struct {
			Peers []peerJSON `json:"peers"`
		}{Peers: make([]peerJSON, 0, len(peers))}
		for _, p := range peers {
			out.Peers = append(out.Peers, peerJSON{
				Slot:       p.Slot,
				Addr:       p.Addr,
				State:      p.State.String(),
				LastSeenMS: now.Sub(p.LastSeen).Milliseconds(),
				Frames:     p.Frames,
			})
		}
		adminJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		if !adminGet(w, r) {
			return
		}
		type groupJSON struct {
			Group string `json:"group"`
			Shard int    `json:"shard"`
		}
		gids := c.Groups()
		out := struct {
			Shards int         `json:"shards"`
			Groups []groupJSON `json:"groups"`
		}{Shards: c.Shards(), Groups: make([]groupJSON, 0, len(gids))}
		for _, gid := range gids {
			out.Groups = append(out.Groups, groupJSON{Group: gid.String(), Shard: c.ShardOf(gid)})
		}
		adminJSON(w, http.StatusOK, out)
	})
	return mux
}

// adminGet enforces the handler's read-only contract.
func adminGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// adminJSON writes one JSON response.
func adminJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// adminGroup resolves the ?group= parameter ("" selects the lowest
// open group) to its open Service.
func adminGroup(c *Cluster, name string) (*Service, bool) {
	gids := c.Groups()
	if len(gids) == 0 {
		return nil, false
	}
	if name == "" {
		return c.Group(gids[0])
	}
	for _, gid := range gids {
		if gid.String() == name {
			return c.Group(gid)
		}
	}
	return nil, false
}
