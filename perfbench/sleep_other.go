//go:build !linux

package main

import "time"

// pacer falls back to the runtime timer, whose resolution can be as
// coarse as a millisecond; the lateness shows in client.late_p99_us.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() {}
