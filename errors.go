package rgb

import (
	"errors"

	"github.com/rgbproto/rgb/internal/core"
)

// Typed errors returned by the Service API (and by the underlying
// protocol engine). Match with errors.Is.
var (
	// ErrUnknownMember reports a leave, failure or handoff of a member
	// that is not in the group: one the service has never seen, or one
	// that has left or failed.
	ErrUnknownMember = core.ErrUnknownMember

	// ErrInvalidGUID reports the zero GUID, which can never join.
	ErrInvalidGUID = core.ErrInvalidGUID

	// ErrNotAccessProxy reports a member operation addressed to a
	// network entity that is not a bottom-tier access proxy.
	ErrNotAccessProxy = core.ErrNotAccessProxy

	// ErrDuplicateJoin reports a join for a member that is already
	// operational (re-joining after a leave or failure is allowed).
	ErrDuplicateJoin = core.ErrDuplicateJoin

	// ErrQueryLevel reports a Membership-Query against a ring level
	// outside the hierarchy.
	ErrQueryLevel = core.ErrQueryLevel

	// ErrPartitioned reports a Partition while a cut is already active.
	ErrPartitioned = core.ErrPartitioned

	// ErrNotPartitioned reports a Heal with no active cut.
	ErrNotPartitioned = core.ErrNotPartitioned

	// ErrBadFragment reports a Partition whose fragment does not split
	// any ring in two.
	ErrBadFragment = core.ErrBadFragment

	// ErrBadHierarchy reports Open options describing an impossible
	// hierarchy (height < 1 or ring size < 2).
	ErrBadHierarchy = errors.New("rgb: hierarchy requires height >= 1 and ring size >= 2")

	// ErrClosed reports an operation on a closed Service.
	ErrClosed = errors.New("rgb: service closed")

	// ErrOptionUnsupported reports an operation that the selected
	// runtime substrate or options cannot honor: Partition on a
	// real-time runtime or without WithHeartbeat, Block and Unblock on
	// a cluster with no socket. Returning it instead of silently doing
	// nothing keeps experiment configurations honest.
	ErrOptionUnsupported = errors.New("rgb: option unsupported by the selected runtime")

	// ErrBadCluster reports Listen/Dial cluster options that cannot
	// describe a deployment (index out of range, missing peers).
	ErrBadCluster = errors.New("rgb: invalid cluster configuration")
)
