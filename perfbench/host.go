package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

func numCPU() int       { return runtime.NumCPU() }
func gomaxprocs() int   { return runtime.GOMAXPROCS(0) }
func goVersion() string { return runtime.Version() }

// cpuModel names the host CPU ("unknown" where /proc/cpuinfo is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
