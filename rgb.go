package rgb

import (
	"github.com/rgbproto/rgb/internal/core"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mobility"
	"github.com/rgbproto/rgb/internal/workload"
)

// Core protocol types. System is exported for diagnostics: it is what
// Service.Inspect hands its callback.
type (
	// System is a complete RGB deployment on some runtime substrate,
	// reached through Service.Inspect.
	System = core.System
	// Config parameterizes a deployment.
	Config = core.Config
	// Member is a mobile host's membership record.
	Member = core.Member
	// Node is one network entity (AP, AG or BR).
	Node = core.Node
	// QueryScheme selects TMS/BMS/IMS for Membership-Query.
	QueryScheme = core.QueryScheme
	// QueryResult reports a query's answer and cost.
	QueryResult = core.QueryResult
	// DisseminationMode selects full vs path-only propagation.
	DisseminationMode = core.DisseminationMode
)

// Identifier types.
type (
	// GUID is a mobile host's globally unique identity.
	GUID = ids.GUID
	// NodeID identifies a network entity.
	NodeID = ids.NodeID
	// GroupID identifies a communication group.
	GroupID = ids.GroupID
	// MemberInfo is one membership list entry.
	MemberInfo = ids.MemberInfo
)

// Dissemination modes.
const (
	DisseminateFull     = core.DisseminateFull
	DisseminatePathOnly = core.DisseminatePathOnly
)

// DefaultConfig returns a ready-to-run configuration for a full
// height-h hierarchy with r entities per ring.
func DefaultConfig(h, r int) Config { return core.DefaultConfig(h, r) }

// NewGroupID builds a Class-D style group identity.
func NewGroupID(n uint32) GroupID { return ids.NewGroupID(n) }

// TMS is the Topmost Membership Scheme (query the top ring).
func TMS() QueryScheme { return core.TMS() }

// BMS is the Bottommost Membership Scheme for a height-h hierarchy
// (gather from every AP ring).
func BMS(h int) QueryScheme { return core.BMS(h) }

// IMS is an Intermediate Membership Scheme at the given ring level.
func IMS(level int) QueryScheme { return core.IMS(level) }

// Workload and mobility types.
type (
	// Trace is a time-ordered membership event scenario.
	Trace = workload.Trace
	// Event is one scenario event.
	Event = workload.Event
	// EventKind is the type of a scenario event.
	EventKind = workload.EventKind
	// ChurnConfig parameterizes Poisson join/leave/failure churn.
	ChurnConfig = workload.ChurnConfig
	// HandoffEvent is one mobility-driven cell crossing.
	HandoffEvent = mobility.HandoffEvent
	// Grid tiles access proxies into a rectangular cell field.
	Grid = mobility.Grid
	// WaypointConfig parameterizes the random-waypoint model.
	WaypointConfig = mobility.WaypointConfig
)

// Scenario event kinds.
const (
	EvJoin    = workload.EvJoin
	EvLeave   = workload.EvLeave
	EvFail    = workload.EvFail
	EvHandoff = workload.EvHandoff
)

// DefaultChurnConfig returns a moderate churn profile.
func DefaultChurnConfig() ChurnConfig { return workload.DefaultChurnConfig() }

// ChurnOver builds a churn trace over the given access proxies
// (normally Service.APs).
func ChurnOver(aps []NodeID, cfg ChurnConfig, firstGUID GUID) Trace {
	return workload.Churn(aps, cfg, firstGUID)
}

// NewGridOver tiles the given access proxies (normally Service.APs)
// into square cells of the given edge length (meters).
func NewGridOver(aps []NodeID, cellSize float64) *Grid {
	return mobility.NewGrid(aps, cellSize)
}

// DefaultWaypointConfig returns a standard random-waypoint profile.
func DefaultWaypointConfig(hosts int) WaypointConfig {
	return mobility.DefaultWaypointConfig(hosts)
}

// RandomWaypoint generates a handoff trace for hosts roaming the grid.
func RandomWaypoint(grid *Grid, cfg WaypointConfig, firstGUID GUID) []HandoffEvent {
	return mobility.RandomWaypoint(grid, cfg, firstGUID)
}

// WithMobility merges a handoff trace into a scenario.
func WithMobility(tr Trace, handoffs []HandoffEvent) Trace {
	return workload.WithMobility(tr, handoffs)
}

// LiveAtEnd returns the members a trace leaves in the group.
func LiveAtEnd(tr Trace) []GUID { return workload.LiveAtEnd(tr) }
