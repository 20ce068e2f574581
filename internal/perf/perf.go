// Package perf fingerprints the environment a benchmark result was
// measured in (bench/main.go stamps it into each result file).
package perf

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Env is the environment fingerprint stamped into a result file.
type Env struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"`
}

// CaptureEnv fingerprints the running environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// String renders the fingerprint on one line.
func (e Env) String() string {
	cpu := e.CPU
	if cpu == "" {
		cpu = "unknown-cpu"
	}
	return fmt.Sprintf("%s %s/%s %d-cpu (GOMAXPROCS %d) %s",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, cpu)
}
