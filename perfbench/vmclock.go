package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// vmClock turns wall-clock intervals into host time with hypervisor steal
// removed. On a virtual machine the hypervisor can withhold the vCPUs for
// seconds at a time; the guest accounts that as steal in /proc/stat. The
// clock samples the VM's CPU accounting every vmSample and credits each
// slice of an interval with the share of runnable vCPU time the VM was
// actually given, busy / (busy + steal). Without steal (or without
// /proc/stat) effective time equals wall time.
type vmClock struct {
	mu      sync.Mutex
	samples []cpuSample
	stop    chan struct{}
	done    chan struct{}
}

// cpuSample is the VM's cumulative busy and steal ticks at one instant.
type cpuSample struct {
	t           time.Time
	busy, steal uint64
}

const vmSample = 100 * time.Millisecond

// readCPUTicks returns the VM-wide busy (user, nice, system, irq, softirq)
// and steal ticks from the first line of /proc/stat.
func readCPUTicks() (busy, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = n
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

// startVMClock starts sampling; close stops it.
func startVMClock() *vmClock {
	c := &vmClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(vmSample)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *vmClock) sample() {
	busy, steal, ok := readCPUTicks()
	if !ok {
		return
	}
	c.mu.Lock()
	c.samples = append(c.samples, cpuSample{t: time.Now(), busy: busy, steal: steal})
	c.mu.Unlock()
}

func (c *vmClock) close() {
	close(c.stop)
	<-c.done
}

// effective returns the steal-free host time of the interval [a, b].
// Slices of the interval outside the sampled range count in full.
func (c *vmClock) effective(a, b time.Time) time.Duration {
	if !b.After(a) {
		return 0
	}
	c.mu.Lock()
	s := c.samples
	c.mu.Unlock()
	// Samples up to now are never rewritten, so reading the prefix
	// without the lock is safe.
	total := b.Sub(a)
	lost := time.Duration(0)
	i := sort.Search(len(s), func(i int) bool { return s[i].t.After(a) })
	if i > 0 {
		i--
	}
	for ; i+1 < len(s) && s[i].t.Before(b); i++ {
		lo, hi := s[i].t, s[i+1].t
		if lo.Before(a) {
			lo = a
		}
		if hi.After(b) {
			hi = b
		}
		if !hi.After(lo) {
			continue
		}
		dSteal := s[i+1].steal - s[i].steal
		dBusy := s[i+1].busy - s[i].busy
		if dSteal == 0 || dSteal+dBusy == 0 {
			continue
		}
		share := float64(dSteal) / float64(dSteal+dBusy)
		lost += time.Duration(share * float64(hi.Sub(lo)))
	}
	return total - lost
}

// stealShare returns the share of runnable vCPU time stolen over [a, b].
func (c *vmClock) stealShare(a, b time.Time) float64 {
	w := b.Sub(a)
	if w <= 0 {
		return 0
	}
	return 1 - float64(c.effective(a, b))/float64(w)
}
