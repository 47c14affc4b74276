package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// A real line, with the worst command name the kernel allows.
	const stat = "4242 (rai) worker) (x) S 1 4242 4242 0 -1 4194560 1523 0 0 0 317 45 0 0 20 0 9 0 8830412 1271025664 4310 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 317+45 {
		t.Errorf("ticks = %d, want utime 317 + stime 45", got)
	}
	for _, bad := range []string{"", "12 no-parens S 1", "12 (x) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) should fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\traifs\nVmPeak:\t 1241236 kB\nVmSize:\t 1241236 kB\nVmHWM:\t   17240 kB\nVmRSS:\t   16980 kB\nThreads:\t9\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 17240 {
		t.Errorf("VmHWM = %d KiB, want 17240", got)
	}
	if _, err := parseVmHWM("Name:\tkthreadd\nThreads:\t1\n"); err == nil {
		t.Error("a status file without VmHWM (a kernel thread) should fail")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("a unit other than kB should fail")
	}
}

func TestReadOwnProc(t *testing.T) {
	if _, err := readCPUTicks(1 << 30); err == nil {
		t.Error("reading a pid that cannot exist should fail")
	}
}
