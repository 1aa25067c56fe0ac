package core

import (
	"errors"
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
)

// Typed errors returned by the membership operations. They replace
// the pre-service-API panics, so a caller holding a bad GUID or a
// non-AP node gets a matchable error instead of a crashed process.
// The rgb facade re-exports them.
var (
	// ErrUnknownMember reports a leave, failure or handoff of a member
	// that is not in the group: one the system has never seen, or one
	// that has left or failed.
	ErrUnknownMember = errors.New("unknown member")

	// ErrInvalidGUID reports the zero GUID, which can never join.
	ErrInvalidGUID = errors.New("invalid GUID")

	// ErrNotAccessProxy reports a member operation addressed to a
	// network entity that is not a bottom-tier access proxy.
	ErrNotAccessProxy = errors.New("not a bottom-tier access proxy")

	// ErrDuplicateJoin reports a join for a member that is already
	// operational (re-joining after a leave or failure is allowed).
	ErrDuplicateJoin = errors.New("member already joined")

	// ErrQueryLevel reports a Membership-Query against a ring level
	// outside the hierarchy.
	ErrQueryLevel = errors.New("query level out of range")

	// ErrPartitionUnsupported reports a network-partition request on a
	// transport without the partition capability (a real network is
	// partitioned from outside the process, not through this API).
	ErrPartitionUnsupported = errors.New("transport does not support partition")

	// ErrPartitioned reports a PartitionNetwork while a cut is active.
	ErrPartitioned = errors.New("network already partitioned")

	// ErrNotPartitioned reports a HealNetwork with no active cut.
	ErrNotPartitioned = errors.New("network not partitioned")

	// ErrBadFragment reports a partition fragment that does not split
	// any ring in two (both sides of every ring would be empty or
	// whole, so there is nothing to cut).
	ErrBadFragment = errors.New("partition fragment must cut at least one ring")
)

// errNoEndpoint reports a join that would need a new mobile-host
// endpoint when every ordinal below the query apps' is in use.
var errNoEndpoint = errors.New("mobile-host endpoints exhausted")

// requireAP checks that ap is a bottom-tier access proxy.
func (s *System) requireAP(ap ids.NodeID) error {
	if s.hier.LevelOf(ap) != s.cfg.H-1 {
		return fmt.Errorf("core: %s: %w", ap, ErrNotAccessProxy)
	}
	return nil
}

// operational resolves a GUID to the MH record of a member in the
// group: a member that left or failed can neither leave, fail nor move.
func (s *System) operational(guid ids.GUID) (*Member, error) {
	m, ok := s.members[guid]
	if !ok {
		return nil, fmt.Errorf("core: %s: %w", guid, ErrUnknownMember)
	}
	if !m.Status.Operational() {
		return nil, fmt.Errorf("core: %s is %s: %w", guid, m.Status, ErrUnknownMember)
	}
	return m, nil
}
