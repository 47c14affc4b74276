package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clkTck is the kernel's USER_HZ, the unit of utime/stime in
// /proc/PID/stat. It is 100 on every Linux ABI Go supports; the
// standard library has no sysconf to ask.
const clkTck = 100

// parseStatCPU returns utime+stime in clock ticks from the text of
// /proc/PID/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("procfs: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat line %q", stat)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM returns the peak resident set in KiB from the text of
// /proc/PID/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: odd VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

func readCPUTicks(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

func readHWMKiB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}
