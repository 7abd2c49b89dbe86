package colstore

import "strdict/internal/intcomp"

// RaceBuild reports a race-detector build, whose instrumentation turns
// slices.Grow's one allocation into two.
const RaceBuild = snapshotGuarded

// CountTableOf returns the holder of the snapshot's count table, to be
// compared by identity, and the table, nil until built.
func CountTableOf(s *Snapshot) (holder any, table intcomp.Vector) {
	if t := s.v.counts.built.Load(); t != nil {
		return s.v.counts, *t
	}
	return s.v.counts, nil
}

// SealActive seals c's active delta segment, the first step of every merge.
func SealActive(c *StringColumn) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	c.sealActive()
}
