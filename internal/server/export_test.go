package server

import "context"

// SetTestGate installs a hook that runs inside runCampaign before the
// simulation starts; returning an error aborts the campaign with it. Tests
// use it to hold campaigns mid-flight deterministically.
func (s *Server) SetTestGate(fn func(ctx context.Context, key string) error) { s.testGate = fn }

// SetTestPointDone installs an observer for each completed point.
func (s *Server) SetTestPointDone(fn func(key string, completed int)) { s.testPointDone = fn }
