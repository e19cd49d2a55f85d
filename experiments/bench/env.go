package bench

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Env is the environment metadata stamped onto every machine-readable
// benchmark result. Points are committed to the repo under perf/; without
// knowing what machine and commit produced a point, reading one against
// another is numerology.
type Env struct {
	GitSHA     string `json:"git_sha"`
	Date       string `json:"date"` // RFC3339, UTC
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CollectEnv gathers the environment metadata for a benchmark run. The
// commit hash comes from git when available, falling back to the CI-provided
// GITHUB_SHA, then "unknown" — metadata collection must never fail a run.
func CollectEnv() Env {
	return Env{
		GitSHA:     gitSHA(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha
		}
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}
