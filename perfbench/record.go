package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// runRecord stamps one run: where it ran, on which code, with which
// inputs and settings, and whether its load generator kept its schedule.
type runRecord struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	CPUModel   string   `json:"cpu_model"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Source     string   `json:"source_sha256"`
	Passes     int      `json:"passes,omitempty"`
	ServeFlags []string `json:"exaserve_flags,omitempty"`
	RateLo     float64  `json:"rate_lo_rps,omitempty"`
	RateHi     float64  `json:"rate_hi_rps,omitempty"`
	LimitMS    float64  `json:"latency_limit_ms,omitempty"`
	PollMS     float64  `json:"poll_interval_ms,omitempty"`
	GenLagMS   float64  `json:"gen_lag_p99_ms,omitempty"`
	Valid      bool     `json:"valid"`
	Notes      []string `json:"notes,omitempty"`
}

func newRunRecord(o options) runRecord {
	src, err := sourceDigest(".")
	if err != nil {
		src = "unknown: " + err.Error()
	}
	return runRecord{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     src,
		Valid:      true,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// commit is the checkout's git commit, or "unknown" outside a git
// repository (the source digest identifies the code either way).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's sources under root: go.mod and every
// file below cmd/ and internal/, names and contents, in walk order.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return add(path)
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mustJSON renders v, which must be JSON-encodable.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
