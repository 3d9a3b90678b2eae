package measure

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// CPUTicks is the machine's cumulative CPU time in scheduler ticks, from the
// first line of /proc/stat: Busy is time spent running something, Steal is
// time a virtual CPU was ready to run but the hypervisor ran someone else.
type CPUTicks struct {
	Busy, Steal uint64
}

// ReadCPUTicks reads /proc/stat. Hosts that do not report steal time read as
// zero steal, which turns the benchmark's steal handling into a no-op.
func ReadCPUTicks() (CPUTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return CPUTicks{}, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return CPUTicks{}, fmt.Errorf("unexpected first line of /proc/stat: %q", line)
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseUint(string(fields[i]), 10, 64); err != nil {
			return CPUTicks{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
	}
	return CPUTicks{Busy: v[1] + v[2] + v[3] + v[6] + v[7], Steal: v[8]}, nil
}

// StealShare is the share of the CPU time wanted between two readings that
// the hypervisor withheld: steal / (busy + steal).
func StealShare(before, after CPUTicks) float64 {
	busy, steal := after.Busy-before.Busy, after.Steal-before.Steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
