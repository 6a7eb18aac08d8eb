package server

// What the external conformance test (package server_test, which must
// import internal/cluster and so cannot live in this package) needs of
// the in-package test helpers.

var (
	NewTestDB = newTestDB
	RawHello  = rawHello
	RawDial   = rawDial
)

const RetailQuery = retailQuery

// HoldSlot occupies one admission slot until release is called.
func (s *Server) HoldSlot() (release func()) {
	s.adm.slots <- struct{}{}
	return func() { <-s.adm.slots }
}

// Waiting reports the queries parked in the admission queue.
func (s *Server) Waiting() int { return s.adm.waiting() }
