package prefetcher

// Fork support: deep-copy the prefetcher suite for Machine.Fork, the only
// way prefetcher state is copied. Deliberately corrupted state is copied
// verbatim, so it survives for the auditor to flag.

// Fork returns an independent deep copy of the IP-stride prefetcher. The
// telemetry hub is NOT carried over (emits would land in the parent's
// trace); the forked machine attaches its own hub via SetTelemetry.
func (p *IPStride) Fork() *IPStride {
	f := &IPStride{
		cfg:      p.cfg,
		entries:  append([]Entry(nil), p.entries...),
		policy:   p.policy.Clone(),
		mask:     p.mask,
		NextPage: p.NextPage,
		stats:    p.stats,
	}
	f.lastIssue = p.lastIssue
	return f
}

// Fork returns an independent deep copy of the suite with a fresh scratch
// buffer sized to the parent's capacity, so the fork's OnLoad path is
// allocation-free from the first call just like the warmed parent's.
func (s *Suite) Fork() *Suite {
	dcu, dpl := *s.DCU, *s.DPL
	streamer := *s.Streamer
	streamer.table = append([]streamEntry(nil), s.Streamer.table...)
	return &Suite{
		IPStride: s.IPStride.Fork(),
		DCU:      &dcu,
		DPL:      &dpl,
		Streamer: &streamer,
		scratch:  make([]Request, 0, cap(s.scratch)),
	}
}
