package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// machineDelta is the read-only machine record of a timed phase: the
// jiffies all CPUs spent stolen by the hypervisor, idle, and in total, read
// from /proc/stat, and /proc/loadavg at its end. It is a diagnostic printed
// to standard error, not a metric: it tells a noisy run from a slow program.
type machineDelta struct {
	steal, idle, total int64
	loadavg            string
}

// readMachine samples /proc/stat and /proc/loadavg; on a system without
// them the record stays empty.
func readMachine() machineDelta {
	var m machineDelta
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			v, _ := strconv.ParseInt(f[i], 10, 64)
			m.total += v
			switch i {
			case 4: // idle
				m.idle = v
			case 8: // steal
				m.steal = v
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		m.loadavg = strings.TrimSpace(string(b))
	}
	return m
}

func (m machineDelta) sub(o machineDelta) machineDelta {
	return machineDelta{m.steal - o.steal, m.idle - o.idle, m.total - o.total, m.loadavg}
}

func (m machineDelta) String() string {
	pct := func(v int64) float64 { return 100 * float64(v) / float64(max(m.total, 1)) }
	return fmt.Sprintf("steal %d jiffies (%.1f%%), idle %d jiffies (%.1f%%) of %d; loadavg %s",
		m.steal, pct(m.steal), m.idle, pct(m.idle), m.total, m.loadavg)
}
